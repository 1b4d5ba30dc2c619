(* Line-delimited JSON codec for the daemon protocol (docs/SERVER.md).

   Obs.Jsonx both emits frames (floats as %.17g, the round-trip-exact form
   the bit-identical smoke comparison relies on) and parses them; this
   module only maps parsed values to typed requests and responses. A line
   that is not JSON is a [Parse] error, JSON of the wrong shape a
   [Bad_request]. *)

type error_code =
  | Parse
  | Bad_request
  | Sql
  | Unknown_query
  | Admission_clients
  | Admission_plans
  | Admission_bootstrap

let error_code_to_string = function
  | Parse -> "parse"
  | Bad_request -> "bad_request"
  | Sql -> "sql"
  | Unknown_query -> "unknown_query"
  | Admission_clients -> "admission_clients"
  | Admission_plans -> "admission_plans"
  | Admission_bootstrap -> "admission_bootstrap"

let error_code_of_string = function
  | "parse" -> Some Parse
  | "bad_request" -> Some Bad_request
  | "sql" -> Some Sql
  | "unknown_query" -> Some Unknown_query
  | "admission_clients" -> Some Admission_clients
  | "admission_plans" -> Some Admission_plans
  | "admission_bootstrap" -> Some Admission_bootstrap
  | _ -> None

type request =
  | Register of { sql : string; name : string option }
  | Stream of { query : int; every : int }
  | Detach of { query : int }
  | Marginals of { query : int }
  | List_queries
  | Stats
  | Shutdown

type estimates = (string * float) list

type response =
  | Registered of { query : int; name : string; samples : int }
  | Streaming of { query : int; every : int }
  | Update of { query : int; sample : int; estimates : estimates }
  | Detached of { query : int; name : string; samples : int; estimates : estimates }
  | Marginals_reply of {
      query : int;
      name : string;
      samples : int;
      estimates : estimates;
    }
  | Queries_reply of (int * string) list
  | Stats_reply of {
      clients : int;
      queries : int;
      samples : int;
      max_samples : int;
      rejected : int;
      coalesced : int;
      thinned : int;
    }
  | Error of { code : error_code; msg : string }
  | Bye

(* ---------- field accessors ---------- *)

(* A well-formed frame of the wrong shape: answered as [Bad_request]. *)
exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

let req_field obj name =
  match Obs.Jsonx.field obj name with
  | Some v -> v
  | None -> bad "missing field %S" name

let as_string name = function
  | Obs.Jsonx.Str s -> s
  | _ -> bad "field %S must be a string" name

let as_int name = function
  | Obs.Jsonx.Num f ->
      let i = int_of_float f in
      if Float.equal (float_of_int i) f then i else bad "field %S must be an integer" name
  | _ -> bad "field %S must be a number" name

let as_float name = function Obs.Jsonx.Num f -> f | _ -> bad "field %S must be a number" name

(* ---------- requests ---------- *)

(* Every frame is emitted with its object fields in ascending key order.
   The decoders above are field-order independent, so this is wire
   compatible; what it buys is byte-identical frames regardless of how the
   record literal happens to be written or refactored, which the resume
   twin-smoke comparison and the protocol determinism test pin (R8:
   deterministic-serialization). *)
let obj_sorted fields =
  Obs.Jsonx.obj (List.sort (fun (a, _) (b, _) -> String.compare a b) fields)

let encode_request req =
  let open Obs.Jsonx in
  match req with
  | Register { sql; name } ->
      obj_sorted
        (("op", str "register") :: ("sql", str sql)
        :: (match name with None -> [] | Some n -> [ ("name", str n) ]))
  | Stream { query; every } ->
      obj_sorted [ ("op", str "stream"); ("query", int query); ("every", int every) ]
  | Detach { query } -> obj_sorted [ ("op", str "detach"); ("query", int query) ]
  | Marginals { query } -> obj_sorted [ ("op", str "marginals"); ("query", int query) ]
  | List_queries -> obj_sorted [ ("op", str "list") ]
  | Stats -> obj_sorted [ ("op", str "stats") ]
  | Shutdown -> obj_sorted [ ("op", str "shutdown") ]

let decode_request line =
  match Obs.Jsonx.parse line with
  | exception Obs.Jsonx.Parse_error msg -> Result.Error (Parse, msg)
  | j -> (
      try
        match as_string "op" (req_field j "op") with
        | "register" ->
            Result.Ok
              (Register
                 {
                   sql = as_string "sql" (req_field j "sql");
                   name =
                     (match Obs.Jsonx.field j "name" with
                     | None -> None
                     | Some n -> Some (as_string "name" n));
                 })
        | "stream" ->
            Result.Ok
              (Stream
                 {
                   query = as_int "query" (req_field j "query");
                   every =
                     (match Obs.Jsonx.field j "every" with
                     | None -> 0
                     | Some e -> as_int "every" e);
                 })
        | "detach" -> Result.Ok (Detach { query = as_int "query" (req_field j "query") })
        | "marginals" ->
            Result.Ok (Marginals { query = as_int "query" (req_field j "query") })
        | "list" -> Result.Ok List_queries
        | "stats" -> Result.Ok Stats
        | "shutdown" -> Result.Ok Shutdown
        | other -> bad "unknown op %S" other
      with Bad msg -> Result.Error (Bad_request, msg))

(* ---------- responses ---------- *)

let encode_estimates es =
  Obs.Jsonx.arr
    (List.map (fun (row, p) -> Obs.Jsonx.arr [ Obs.Jsonx.str row; Obs.Jsonx.float p ]) es)

let decode_estimates name = function
  | Obs.Jsonx.Arr items ->
      List.map
        (function
          | Obs.Jsonx.Arr [ row; p ] -> (as_string name row, as_float name p)
          | _ -> bad "field %S must hold [row, probability] pairs" name)
        items
  | _ -> bad "field %S must be an array" name

let encode_response resp =
  let open Obs.Jsonx in
  match resp with
  | Registered { query; name; samples } ->
      obj_sorted
        [ ("type", str "registered"); ("query", int query); ("name", str name);
          ("samples", int samples) ]
  | Streaming { query; every } ->
      obj_sorted [ ("type", str "streaming"); ("query", int query); ("every", int every) ]
  | Update { query; sample; estimates } ->
      obj_sorted
        [ ("type", str "update"); ("query", int query); ("sample", int sample);
          ("estimates", encode_estimates estimates) ]
  | Detached { query; name; samples; estimates } ->
      obj_sorted
        [ ("type", str "detached"); ("query", int query); ("name", str name);
          ("samples", int samples); ("estimates", encode_estimates estimates) ]
  | Marginals_reply { query; name; samples; estimates } ->
      obj_sorted
        [ ("type", str "marginals"); ("query", int query); ("name", str name);
          ("samples", int samples); ("estimates", encode_estimates estimates) ]
  | Queries_reply queries ->
      obj_sorted
        [ ("type", str "queries");
          ("queries", arr (List.map (fun (id, n) -> arr [ int id; str n ]) queries)) ]
  | Stats_reply { clients; queries; samples; max_samples; rejected; coalesced; thinned } ->
      obj_sorted
        [ ("type", str "stats"); ("clients", int clients); ("queries", int queries);
          ("samples", int samples); ("max_samples", int max_samples);
          ("rejected", int rejected); ("coalesced", int coalesced);
          ("thinned", int thinned) ]
  | Error { code; msg } ->
      obj_sorted [ ("type", str "error"); ("code", str (error_code_to_string code)); ("msg", str msg) ]
  | Bye -> obj_sorted [ ("type", str "bye") ]

let decode_response line =
  match Obs.Jsonx.parse line with
  | exception Obs.Jsonx.Parse_error msg -> Result.Error msg
  | j -> (
      match Obs.Jsonx.field j "type" with
      | None -> Result.Error "missing field \"type\""
      | Some ty -> (
          match as_string "type" ty with
          | exception Bad msg -> Result.Error msg
          | ty -> (
              try
                match ty with
                | "registered" ->
                    Result.Ok
                      (Registered
                         {
                           query = as_int "query" (req_field j "query");
                           name = as_string "name" (req_field j "name");
                           samples = as_int "samples" (req_field j "samples");
                         })
                | "streaming" ->
                    Result.Ok
                      (Streaming
                         {
                           query = as_int "query" (req_field j "query");
                           every = as_int "every" (req_field j "every");
                         })
                | "update" ->
                    Result.Ok
                      (Update
                         {
                           query = as_int "query" (req_field j "query");
                           sample = as_int "sample" (req_field j "sample");
                           estimates = decode_estimates "estimates" (req_field j "estimates");
                         })
                | "detached" ->
                    Result.Ok
                      (Detached
                         {
                           query = as_int "query" (req_field j "query");
                           name = as_string "name" (req_field j "name");
                           samples = as_int "samples" (req_field j "samples");
                           estimates = decode_estimates "estimates" (req_field j "estimates");
                         })
                | "marginals" ->
                    Result.Ok
                      (Marginals_reply
                         {
                           query = as_int "query" (req_field j "query");
                           name = as_string "name" (req_field j "name");
                           samples = as_int "samples" (req_field j "samples");
                           estimates = decode_estimates "estimates" (req_field j "estimates");
                         })
                | "queries" ->
                    Result.Ok
                      (Queries_reply
                         (match req_field j "queries" with
                         | Obs.Jsonx.Arr items ->
                             List.map
                               (function
                                 | Obs.Jsonx.Arr [ id; n ] ->
                                     (as_int "queries" id, as_string "queries" n)
                                 | _ -> bad "field \"queries\" must hold [id, name] pairs")
                               items
                         | _ -> bad "field \"queries\" must be an array"))
                | "stats" ->
                    Result.Ok
                      (Stats_reply
                         {
                           clients = as_int "clients" (req_field j "clients");
                           queries = as_int "queries" (req_field j "queries");
                           samples = as_int "samples" (req_field j "samples");
                           max_samples = as_int "max_samples" (req_field j "max_samples");
                           rejected = as_int "rejected" (req_field j "rejected");
                           coalesced = as_int "coalesced" (req_field j "coalesced");
                           thinned = as_int "thinned" (req_field j "thinned");
                         })
                | "error" -> (
                    let code_s = as_string "code" (req_field j "code") in
                    match error_code_of_string code_s with
                    | Some code ->
                        Result.Ok (Error { code; msg = as_string "msg" (req_field j "msg") })
                    | None -> Result.Error (Printf.sprintf "unknown error code %S" code_s))
                | "bye" -> Result.Ok Bye
                | other -> Result.Error (Printf.sprintf "unknown response type %S" other)
              with Bad msg -> Result.Error msg)))
