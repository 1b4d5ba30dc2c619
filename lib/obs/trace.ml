type event = { ts_ns : int; name : string; args : (string * string) list }

type sink = Null | Stderr | Channel of out_channel | Custom of (event -> unit)

let switch = Atomic.make false
let set_enabled b = Atomic.set switch b
let enabled () = Atomic.get switch

(* All mutable trace state lives behind one mutex: the ring, the sink, and
   whether we own the sink's channel (opened by [sink_to_file]). *)
let lock = Mutex.create ()
let ring = ref (Array.make 1024 None)
let head = ref 0 (* next write position *)
let filled = ref 0
let sink = ref Null
let owned_channel : out_channel option ref = ref None

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let to_json e =
  Jsonx.obj
    [ ("ts_ns", Jsonx.int e.ts_ns);
      ("name", Jsonx.str e.name);
      ("args", Jsonx.obj (List.map (fun (k, v) -> (k, Jsonx.str v)) e.args)) ]

let close_owned () =
  match !owned_channel with
  | None -> ()
  | Some oc ->
    owned_channel := None;
    (try close_out oc with Sys_error _ -> ())

let set_sink s =
  locked (fun () ->
      close_owned ();
      sink := s)

let sink_to_file path =
  let oc = open_out path in
  locked (fun () ->
      close_owned ();
      owned_channel := Some oc;
      sink := Channel oc)

let close () =
  locked (fun () ->
      match !owned_channel with
      | None -> ()
      | Some _ ->
        close_owned ();
        sink := Null)

let set_capacity n =
  if n <= 0 then invalid_arg "Obs.Trace.set_capacity";
  locked (fun () ->
      ring := Array.make n None;
      head := 0;
      filled := 0)

let deliver e =
  match !sink with
  | Null -> ()
  | Stderr ->
    let args = String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) e.args) in
    (* pdb_lint: allow R3 — the Stderr sink IS the print boundary library code routes through *)
    Printf.eprintf "[trace %.6f] %s %s\n%!" (float_of_int e.ts_ns /. 1e9) e.name args
  | Channel oc ->
    output_string oc (to_json e);
    output_char oc '\n'
  | Custom f -> f e

let emit ?(args = []) name =
  if enabled () then begin
    let e = { ts_ns = Timer.now_ns (); name; args } in
    locked (fun () ->
        let r = !ring in
        r.(!head) <- Some e;
        head := (!head + 1) mod Array.length r;
        filled := min (Array.length r) (!filled + 1);
        deliver e)
  end

let recent () =
  locked (fun () ->
      let r = !ring in
      let n = !filled in
      let cap = Array.length r in
      let start = (!head - n + cap) mod cap in
      List.init n (fun i ->
          match r.((start + i) mod cap) with
          | Some e -> e
          | None -> assert false))
