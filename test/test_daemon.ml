(* Tests for the query daemon: the wire codec must be an exact inverse
   pair (including error frames — qcheck) and must never raise on mutated,
   truncated or megabyte-long lines, admission control must reject
   with typed errors rather than queue, a slow client must coalesce
   updates without stalling the sampling loop, and the convergence-aware
   scheduler must read degenerate diagnostics (nan R̂, zero ESS, short or
   constant windows) as "not converged, schedule densely" — the ISSUE 9
   bugfix contract. *)

module P = Serve.Protocol

(* ---------------------------------------------------------------- *)
(* Codec round-trip                                                 *)
(* ---------------------------------------------------------------- *)

(* Frame equality via the encoder itself: decode (encode x) must
   re-encode to the same bytes. This is exactly the "exact inverses"
   claim and needs no polymorphic compare. *)

let gen_estimates =
  QCheck.Gen.(
    small_list (pair string (map (fun p -> p /. 1000.) (float_bound_inclusive 1000.))))

let gen_error_code =
  QCheck.Gen.oneofl
    [ P.Parse;
      P.Bad_request;
      P.Sql;
      P.Unknown_query;
      P.Admission_clients;
      P.Admission_plans;
      P.Admission_bootstrap ]

let gen_request =
  QCheck.Gen.(
    oneof
      [ map2 (fun sql name -> P.Register { sql; name }) string (opt string);
        map2 (fun query every -> P.Stream { query; every }) small_nat small_nat;
        map (fun query -> P.Detach { query }) small_nat;
        map (fun query -> P.Marginals { query }) small_nat;
        return P.List_queries;
        return P.Stats;
        return P.Shutdown ])

let gen_response =
  QCheck.Gen.(
    oneof
      [ map3
          (fun query name samples -> P.Registered { query; name; samples })
          small_nat string small_nat;
        map2 (fun query every -> P.Streaming { query; every }) small_nat small_nat;
        map3
          (fun query sample estimates -> P.Update { query; sample; estimates })
          small_nat small_nat gen_estimates;
        map3
          (fun (query, name) samples estimates ->
            P.Detached { query; name; samples; estimates })
          (pair small_nat string) small_nat gen_estimates;
        map3
          (fun (query, name) samples estimates ->
            P.Marginals_reply { query; name; samples; estimates })
          (pair small_nat string) small_nat gen_estimates;
        map (fun qs -> P.Queries_reply qs) (small_list (pair small_nat string));
        map3
          (fun (clients, queries) (samples, max_samples) (rejected, coalesced, thinned) ->
            P.Stats_reply
              { clients; queries; samples; max_samples; rejected; coalesced; thinned })
          (pair small_nat small_nat) (pair small_nat small_nat)
          (triple small_nat small_nat small_nat);
        map2 (fun code msg -> P.Error { code; msg }) gen_error_code string;
        return P.Bye ])

let prop_request_roundtrip =
  QCheck.Test.make ~name:"protocol: request decode o encode = id" ~count:500
    (QCheck.make gen_request ~print:P.encode_request)
    (fun r ->
      match P.decode_request (P.encode_request r) with
      | Result.Ok r' -> String.equal (P.encode_request r') (P.encode_request r)
      | Result.Error (_, msg) ->
          QCheck.Test.fail_reportf "decode failed on own encoding: %s" msg)

let prop_response_roundtrip =
  QCheck.Test.make ~name:"protocol: response decode o encode = id (incl. errors)"
    ~count:500
    (QCheck.make gen_response ~print:P.encode_response)
    (fun r ->
      match P.decode_response (P.encode_response r) with
      | Result.Ok r' -> String.equal (P.encode_response r') (P.encode_response r)
      | Result.Error msg ->
          QCheck.Test.fail_reportf "decode failed on own encoding: %s" msg)

(* ---------------------------------------------------------------- *)
(* Fuzz: the reader and the decoders are total                      *)
(* ---------------------------------------------------------------- *)

(* Parsing may fail only with Jsonx's own exception, and the decoders
   never raise: a hostile line gets an error frame, not a dead daemon. *)
let total line =
  (match Obs.Jsonx.parse line with
  | _ -> ()
  | exception Obs.Jsonx.Parse_error _ -> ());
  ignore (P.decode_request line : (P.request, P.error_code * string) result);
  ignore (P.decode_response line : (P.response, string) result);
  true

let gen_frame =
  QCheck.Gen.(oneof [ map P.encode_request gen_request; map P.encode_response gen_response ])

(* Overwrite, delete or insert a byte at [pos], or cut the line there. *)
let edit line (kind, pos, ch) =
  let n = String.length line in
  let i = if n = 0 then 0 else pos mod n in
  match kind with
  | 0 when n > 0 -> String.mapi (fun j c -> if j = i then ch else c) line
  | 1 when n > 0 -> String.sub line 0 i ^ String.sub line (i + 1) (n - i - 1)
  | 2 -> String.sub line 0 i ^ String.make 1 ch ^ String.sub line i (n - i)
  | _ -> String.sub line 0 i

let gen_mutated =
  let significant =
    [ '{'; '}'; '['; ']'; '"'; '\\'; ','; ':'; '0'; '1'; '-'; '+'; '.'; 'e'; 'u'; 'd'; ' ';
      '\000'; '\255' ]
  in
  QCheck.Gen.(
    pair gen_frame (list_size (int_range 1 4) (triple (int_bound 3) nat (oneofl significant)))
    >|= fun (frame, edits) -> List.fold_left edit frame edits)

let prop_fuzz_mutated =
  QCheck.Test.make ~name:"protocol: mutated frames never raise" ~count:2000
    (QCheck.make gen_mutated ~print:Fun.id)
    total

(* Quadratic in the frame length, so frames stay under 1 KB. *)
let prop_fuzz_truncated =
  QCheck.Test.make ~name:"protocol: every truncation of a frame is handled" ~count:200
    (QCheck.make gen_frame ~print:Fun.id)
    (fun frame ->
      QCheck.assume (String.length frame <= 1024);
      List.for_all (fun i -> total (String.sub frame 0 i)) (List.init (String.length frame) Fun.id))

let test_megabyte_lines () =
  let sql = String.make 1_000_000 'a' in
  (match P.decode_request (P.encode_request (P.Register { sql; name = None })) with
  | Result.Ok (P.Register { sql = sql'; _ }) ->
      Alcotest.(check bool) "1 MB string survives" true (String.equal sql sql')
  | _ -> Alcotest.fail "1 MB register frame did not decode");
  let nested = String.make 1_000_000 '[' in
  (match P.decode_request nested with
  | Result.Error (P.Parse, _) -> ()
  | _ -> Alcotest.fail "1 MB of [ should be a parse error");
  match P.decode_response nested with
  | Result.Error _ -> ()
  | Result.Ok _ -> Alcotest.fail "1 MB of [ decoded as a response"

let test_decode_classification () =
  (* Not JSON at all: the daemon must answer with a [parse] error. *)
  (match P.decode_request "{\"op\":" with
  | Result.Error (P.Parse, _) -> ()
  | _ -> Alcotest.fail "truncated JSON should classify as Parse");
  (match P.decode_request "hello" with
  | Result.Error (P.Parse, _) -> ()
  | _ -> Alcotest.fail "non-JSON should classify as Parse");
  (* Well-formed JSON that is not a request: [bad_request]. *)
  (match P.decode_request "{\"op\":\"warp\"}" with
  | Result.Error (P.Bad_request, _) -> ()
  | _ -> Alcotest.fail "unknown op should classify as Bad_request");
  (match P.decode_request "[1,2]" with
  | Result.Error (P.Bad_request, _) -> ()
  | _ -> Alcotest.fail "non-object frame should classify as Bad_request");
  (match P.decode_request "{\"op\":\"stream\",\"query\":1.5}" with
  | Result.Error (P.Bad_request, _) -> ()
  | _ -> Alcotest.fail "fractional id should classify as Bad_request");
  (* Trailing bytes after the object are a framing violation. *)
  (match P.decode_request "{\"op\":\"stats\"} trailing" with
  | Result.Error (P.Parse, _) -> ()
  | _ -> Alcotest.fail "trailing bytes should classify as Parse");
  (* Optional fields default. *)
  match P.decode_request "{\"op\":\"stream\",\"query\":3}" with
  | Result.Ok (P.Stream { query = 3; every = 0 }) -> ()
  | _ -> Alcotest.fail "stream without every should default to scheduler cadence"

let test_error_code_strings () =
  List.iter
    (fun c ->
      match P.error_code_of_string (P.error_code_to_string c) with
      | Some c' ->
          Alcotest.(check string)
            "code round-trip" (P.error_code_to_string c) (P.error_code_to_string c')
      | None -> Alcotest.fail "error code string did not round-trip")
    [ P.Parse;
      P.Bad_request;
      P.Sql;
      P.Unknown_query;
      P.Admission_clients;
      P.Admission_plans;
      P.Admission_bootstrap ]

(* ---------------------------------------------------------------- *)
(* Scheduler: degenerate diagnostics schedule densely               *)
(* ---------------------------------------------------------------- *)

let check_dense sched q what =
  Alcotest.(check int) (what ^ " is dense") 1 (Serve.Scheduler.cadence sched q)

let test_scheduler_short_windows () =
  let s = Serve.Scheduler.create () in
  (* Untracked queries are dense by definition. *)
  check_dense s 42 "untracked query";
  Serve.Scheduler.track s 1;
  (* 0-, 1-, and 2-length windows: ESS is 0/1/2 at best and R̂ is nan —
     all must schedule densely, never thin. *)
  check_dense s 1 "empty window";
  (match Serve.Scheduler.diagnostics s 1 with
  | Some (ess, rhat) ->
      Alcotest.(check (float 0.0)) "empty window ESS" 0.0 ess;
      Alcotest.(check bool) "empty window R-hat nan" true (Float.is_nan rhat)
  | None -> Alcotest.fail "tracked query has diagnostics");
  Serve.Scheduler.observe s 1 0.5;
  check_dense s 1 "1-length window";
  (match Serve.Scheduler.diagnostics s 1 with
  | Some (_, rhat) ->
      Alcotest.(check bool) "1-length R-hat nan" true (Float.is_nan rhat)
  | None -> Alcotest.fail "tracked query has diagnostics");
  Serve.Scheduler.observe s 1 0.7;
  check_dense s 1 "2-length window";
  match Serve.Scheduler.diagnostics s 1 with
  | Some (_, rhat) ->
      Alcotest.(check bool) "2-length R-hat nan" true (Float.is_nan rhat)
  | None -> Alcotest.fail "tracked query has diagnostics"

let test_scheduler_constant_window () =
  let s = Serve.Scheduler.create () in
  Serve.Scheduler.track s 1;
  (* A constant summary gives zero within-chain variance, so R̂ is nan —
     the pre-fix failure mode read that as "converged" and thinned a
     query whose convergence is unknowable from a flat window. *)
  for _ = 1 to 40 do
    Serve.Scheduler.observe s 1 3.14
  done;
  (match Serve.Scheduler.diagnostics s 1 with
  | Some (_, rhat) ->
      Alcotest.(check bool) "constant window R-hat nan" true (Float.is_nan rhat)
  | None -> Alcotest.fail "tracked query has diagnostics");
  check_dense s 1 "constant window"

let test_scheduler_trending_dense_mixing_thinned () =
  let s = Serve.Scheduler.create ~window:32 ~min_window:16 () in
  Serve.Scheduler.track s 1;
  (* A trending window (the two halves have different means) has R̂ well
     above threshold: still mixing, stay dense. *)
  for i = 1 to 32 do
    Serve.Scheduler.observe s 1 (float_of_int i)
  done;
  check_dense s 1 "trending window";
  (* A well-mixed stationary window (alternating around a fixed mean)
     has finite R̂ ~ 1 and high ESS: thinning must engage. *)
  Serve.Scheduler.track s 2;
  for i = 1 to 32 do
    Serve.Scheduler.observe s 2 (if i mod 2 = 0 then 1.0 else 0.0)
  done;
  Alcotest.(check bool)
    "mixed window thins" true
    (Serve.Scheduler.cadence s 2 > 1);
  (* Re-tracking resets the window: the query is fresh (dense) again. *)
  Serve.Scheduler.track s 2;
  check_dense s 2 "re-tracked query"

(* The Diagnostics edge cases the scheduler contract leans on, pinned at
   the source. *)
let test_diagnostics_degenerate_inputs () =
  let ess = Mcmc.Diagnostics.effective_sample_size in
  Alcotest.(check (float 0.0)) "ESS of empty chain" 0.0 (ess [||]);
  Alcotest.(check (float 0.0)) "ESS of 1-length chain" 1.0 (ess [| 2.5 |]);
  Alcotest.(check (float 0.0)) "ESS of constant chain" 8.0 (ess (Array.make 8 1.0));
  let gr = Mcmc.Diagnostics.gelman_rubin in
  Alcotest.(check bool) "R-hat of no chains nan" true (Float.is_nan (gr []));
  Alcotest.(check bool)
    "R-hat of one chain nan" true
    (Float.is_nan (gr [ [| 1.0; 2.0; 3.0 |] ]));
  Alcotest.(check bool)
    "R-hat of 1-length chains nan" true
    (Float.is_nan (gr [ [| 1.0 |]; [| 2.0 |] ]));
  Alcotest.(check bool)
    "R-hat of constant chains nan" true
    (Float.is_nan (gr [ Array.make 6 2.0; Array.make 6 2.0 ]))

(* ---------------------------------------------------------------- *)
(* Daemon over a real socket: admission, coalescing                 *)
(* ---------------------------------------------------------------- *)

(* A tiny NER instance — enough rows that an Update frame has real
   estimates in it, small enough that a tick is microseconds. *)
let make_pdb ?(n_tokens = 40) ~thin () =
  let docs = Ie.Corpus.generate_tokens ~seed:7 ~n_tokens in
  let db = Relational.Database.create () in
  ignore (Ie.Token_table.load db docs : Relational.Table.t);
  let world = Core.World.create db in
  let crf = Ie.Crf.create ~params:(Ie.Crf.default_params ()) world in
  let rng = Mcmc.Rng.create 5 in
  let proposal = Ie.Proposals.batched_flip ~proposals_per_batch:thin ~rng crf in
  Core.Pdb.create ~world ~proposal ~rng

let fresh_socket_path () =
  let p = Filename.temp_file "pdb_test_daemon" ".sock" in
  Sys.remove p;
  p

(* Minimal blocking-free client: send a frame, tick the daemon until a
   reply arrives. *)
type cli = { fd : Unix.file_descr; buf : Buffer.t; mutable lines : string list }

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  Unix.set_nonblock fd;
  { fd; buf = Buffer.create 256; lines = [] }

let disconnect c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c req =
  let line = P.encode_request req ^ "\n" in
  ignore (Unix.write_substring c.fd line 0 (String.length line))

(* Read what the socket holds — at most [max] bytes, to model a reader
   that drains in small bursts — and split off the complete lines. *)
let drain ?(max = max_int) c =
  let chunk = Bytes.create 4096 in
  let rec read_some left =
    if left > 0 then
      match Unix.read c.fd chunk 0 (min left (Bytes.length chunk)) with
      | 0 -> ()
      | n ->
          Buffer.add_subbytes c.buf chunk 0 n;
          read_some (left - n)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
          ()
  in
  read_some max;
  let s = Buffer.contents c.buf in
  let n = String.length s in
  let rec split pos acc =
    match String.index_from_opt s pos '\n' with
    | None -> (List.rev acc, pos)
    | Some nl -> split (nl + 1) (String.sub s pos (nl - pos) :: acc)
  in
  let complete, rest = split 0 [] in
  Buffer.clear c.buf;
  Buffer.add_substring c.buf s rest (n - rest);
  c.lines <- c.lines @ complete

let next_frame ?max c =
  drain ?max c;
  match c.lines with
  | [] -> None
  | line :: rest -> (
      c.lines <- rest;
      match P.decode_response line with
      | Result.Ok resp -> Some resp
      | Result.Error msg -> Alcotest.fail ("undecodable frame: " ^ msg))

let await daemon c pred =
  let rec go tries =
    if tries > 100_000 then Alcotest.fail "no matching reply from daemon";
    match next_frame c with
    | Some resp -> ( match pred resp with Some v -> v | None -> go (tries + 1))
    | None ->
        Serve.Daemon.tick daemon ~timeout:0.;
        go (tries + 1)
  in
  go 0

let rpc daemon c req pred =
  send c req;
  await daemon c pred

let sql_for lbl = Printf.sprintf "SELECT STRING FROM TOKEN WHERE LABEL='%s'" lbl

let test_plan_cap_rejection () =
  let path = fresh_socket_path () in
  let cfg =
    { (Serve.Daemon.default_config ~socket_path:path) with
      Serve.Daemon.max_plans = 2;
      thin = 1;
      max_samples = 4 }
  in
  let daemon = Serve.Daemon.of_registry cfg (Serve.Registry.create (make_pdb ~thin:1 ())) in
  let c = connect path in
  let q1 =
    rpc daemon c
      (P.Register { sql = sql_for "B-PER"; name = Some "q1" })
      (function P.Registered { query; _ } -> Some query | _ -> None)
  in
  ignore
    (rpc daemon c
       (P.Register { sql = sql_for "B-ORG"; name = Some "q2" })
       (function P.Registered { query; _ } -> Some query | _ -> None)
      : int);
  (* The cap is full: the third plan is rejected with the typed error,
     and the daemon stays fully usable on the same connection. *)
  let code =
    rpc daemon c
      (P.Register { sql = sql_for "B-LOC"; name = Some "q3" })
      (function
        | P.Error { code; msg = _ } -> Some code
        | P.Registered _ -> Alcotest.fail "third plan admitted past the cap"
        | _ -> None)
  in
  Alcotest.(check string)
    "plan-cap error code" "admission_plans"
    (P.error_code_to_string code);
  Alcotest.(check bool) "rejection counted" true (Serve.Daemon.rejected daemon > 0);
  (* Re-registering a standing name is a reattach, not a new plan — it
     must succeed even with the cap full and return the same id. *)
  let q1' =
    rpc daemon c
      (P.Register { sql = sql_for "B-PER"; name = Some "q1" })
      (function P.Registered { query; _ } -> Some query | _ -> None)
  in
  Alcotest.(check int) "reattach returns the standing id" q1 q1';
  (* Unknown ids get the typed error, not a closed connection. *)
  let code =
    rpc daemon c
      (P.Marginals { query = 99_999 })
      (function P.Error { code; msg = _ } -> Some code | _ -> None)
  in
  Alcotest.(check string)
    "unknown-query error code" "unknown_query"
    (P.error_code_to_string code);
  disconnect c;
  Serve.Daemon.close daemon;
  if Sys.file_exists path then Sys.remove path

let test_client_cap_rejection () =
  let path = fresh_socket_path () in
  let cfg =
    { (Serve.Daemon.default_config ~socket_path:path) with
      Serve.Daemon.max_clients = 1 }
  in
  let daemon = Serve.Daemon.of_registry cfg (Serve.Registry.create (make_pdb ~thin:1 ())) in
  let c1 = connect path in
  ignore
    (rpc daemon c1 P.Stats (function P.Stats_reply _ -> Some () | _ -> None));
  let c2 = connect path in
  (* The over-cap connection receives the typed error frame and is then
     closed by the daemon. *)
  (match await daemon c2 (fun r -> Some r) with
  | P.Error { code = P.Admission_clients; _ } -> ()
  | _ -> Alcotest.fail "over-cap client should get admission_clients");
  disconnect c2;
  disconnect c1;
  Serve.Daemon.close daemon;
  if Sys.file_exists path then Sys.remove path

(* A daemon streaming every sample of [labels] to one client whose
   socket buffer is kilobyte-scale, so a reader that falls behind becomes
   slow after a couple of frames instead of after ~200 KiB. *)
let slow_stream ?(slow_client_bytes = 512) ~samples labels =
  let path = fresh_socket_path () in
  let cfg =
    { (Serve.Daemon.default_config ~socket_path:path) with
      Serve.Daemon.thin = 1;
      max_samples = samples;
      await_queries = List.length labels;
      sndbuf_bytes = 2 * 1024;
      slow_client_bytes }
  in
  (* Enough tokens that a dense update stream overruns the kernel's
     minimum socket buffer within a few samples. *)
  let daemon =
    Serve.Daemon.of_registry cfg
      (Serve.Registry.create (make_pdb ~n_tokens:200 ~thin:1 ()))
  in
  let c = connect path in
  List.iter
    (fun lbl ->
      let q =
        rpc daemon c
          (P.Register { sql = sql_for lbl; name = Some lbl })
          (function P.Registered { query; _ } -> Some query | _ -> None)
      in
      ignore
        (rpc daemon c
           (P.Stream { query = q; every = 1 })
           (function P.Streaming { query; _ } when query = q -> Some () | _ -> None)))
    labels;
  (path, daemon, c)

(* Read at most [max] new bytes, then consume every complete frame,
   failing unless each query's updates arrive in strictly increasing
   sample order. [last] maps query id to its newest sample seen. *)
let check_update_order ?(max = max_int) c last =
  let rec go max =
    match next_frame ~max c with
    | None -> ()
    | Some (P.Update { query; sample; _ }) ->
        let prev = Option.value ~default:(-1) (List.assoc_opt query !last) in
        if sample <= prev then
          Alcotest.failf "query %d: update for sample %d arrived after sample %d" query
            sample prev;
        last := (query, sample) :: List.remove_assoc query !last;
        go 0
    | Some _ -> go 0
  in
  go max

let close_stream (path, daemon, c) =
  disconnect c;
  Serve.Daemon.close daemon;
  if Sys.file_exists path then Sys.remove path

let test_slow_client_coalescing () =
  let samples = 60 in
  let ((_, daemon, c) as stream) = slow_stream ~samples [ "B-PER" ] in
  (* The reader now goes to sleep: no reads while the chain runs. The
     sampling loop must reach max_samples in a bounded number of ticks —
     a loop that blocked on the stuffed socket would never get there. *)
  let ticks = ref 0 in
  while Serve.Daemon.samples daemon < samples && !ticks < 10_000 do
    Serve.Daemon.tick daemon ~timeout:0.;
    incr ticks
  done;
  Alcotest.(check int) "chain reached max_samples" samples (Serve.Daemon.samples daemon);
  Alcotest.(check bool)
    "one tick per sample despite the sleeping reader" true
    (!ticks <= samples + 2);
  Alcotest.(check bool)
    "updates coalesced for the slow client" true
    (Serve.Daemon.coalesced daemon > 0);
  (* The reader wakes up: ticking flushes the latched newest update, and
     the total updates delivered is strictly less than the sample count
     (drop-oldest, never a backlog replay). Every frame must decode
     (next_frame fails otherwise) and updates must arrive in strictly
     increasing sample order — a partial write that resumed at the wrong
     offset would split, repeat, or reorder frames. *)
  let updates = ref 0 and last_sample = ref (-1) in
  for _ = 1 to 200 do
    Serve.Daemon.tick daemon ~timeout:0.;
    let rec count () =
      match next_frame c with
      | None -> ()
      | Some (P.Update { sample; _ }) ->
          if sample <= !last_sample then
            Alcotest.failf "update for sample %d arrived after sample %d" sample
              !last_sample;
          incr updates;
          last_sample := sample;
          count ()
      | Some _ -> count ()
    in
    count ()
  done;
  Alcotest.(check int) "no partial frame left behind" 0 (Buffer.length c.buf);
  Alcotest.(check bool) "some updates delivered" true (!updates > 0);
  Alcotest.(check bool)
    "coalescing dropped updates rather than queuing them" true
    (!updates < samples);
  Alcotest.(check int) "the newest update wins" samples !last_sample;
  close_stream stream;
  (* A reader that drains in small bursts keeps the backlog hovering
     around the slow-client threshold: partial writes of the kilobyte
     frames of label O leave a few hundred bytes unsent while an older
     update is latched, so the next update arrives with a frame already
     pending. Every seventh tick the reader catches up completely and the
     flush reaches an empty buffer. The latched frame must never be
     delivered after a newer one: every query's samples strictly
     increase. *)
  let ((_, daemon, c) as stream) =
    slow_stream ~slow_client_bytes:2048 ~samples [ "B-PER"; "O" ]
  in
  let last = ref [] in
  let ticks = ref 0 in
  while Serve.Daemon.samples daemon < samples && !ticks < 10_000 do
    Serve.Daemon.tick daemon ~timeout:0.;
    check_update_order ~max:(if !ticks mod 7 = 6 then max_int else 512) c last;
    incr ticks
  done;
  for _ = 1 to 200 do
    Serve.Daemon.tick daemon ~timeout:0.;
    check_update_order c last
  done;
  Alcotest.(check bool)
    "bursty reader coalesced" true
    (Serve.Daemon.coalesced daemon > 0);
  List.iter
    (fun (q, s) ->
      Alcotest.(check int) (Printf.sprintf "query %d ends on the newest update" q) samples s)
    !last;
  Alcotest.(check int) "both queries delivered" 2 (List.length !last);
  close_stream stream


(* ---------------------------------------------------------------- *)
(* Serialization determinism (lint rule R8)                         *)
(* ---------------------------------------------------------------- *)

(* Top-level object keys of a one-line JSON frame, in wire order. *)
let toplevel_keys s =
  match Obs.Jsonx.parse s with
  | Obs.Jsonx.Obj fields -> List.map fst fields
  | _ -> Alcotest.failf "frame is not an object: %s" s

(* Every frame of every request/response shape serializes its fields in
   ascending key order: byte-identical output no matter how the record
   literal is written or later refactored. *)
let test_frame_field_order () =
  let frames =
    [ P.encode_request (P.Register { sql = sql_for "B-PER"; name = Some "q" });
      P.encode_request (P.Register { sql = sql_for "B-PER"; name = None });
      P.encode_request (P.Stream { query = 3; every = 2 });
      P.encode_request (P.Detach { query = 3 });
      P.encode_request (P.Marginals { query = 3 });
      P.encode_request P.List_queries;
      P.encode_request P.Stats;
      P.encode_request P.Shutdown;
      P.encode_response (P.Registered { query = 1; name = "q"; samples = 5 });
      P.encode_response (P.Streaming { query = 1; every = 2 });
      P.encode_response
        (P.Update { query = 1; sample = 9; estimates = [ ("Poe", 0.25) ] });
      P.encode_response
        (P.Detached { query = 1; name = "q"; samples = 5; estimates = [] });
      P.encode_response
        (P.Marginals_reply
           { query = 1; name = "q"; samples = 5; estimates = [ ("Poe", 0.5) ] });
      P.encode_response (P.Queries_reply [ (1, "a"); (2, "b") ]);
      P.encode_response
        (P.Stats_reply
           { clients = 1; queries = 2; samples = 3; max_samples = 4; rejected = 0;
             coalesced = 0; thinned = 0 });
      P.encode_response (P.Error { code = P.Sql; msg = "no" });
      P.encode_response P.Bye ]
  in
  List.iter
    (fun frame ->
      let keys = toplevel_keys frame in
      Alcotest.(check (list string))
        (Printf.sprintf "keys sorted in %s" frame)
        (List.sort String.compare keys)
        keys)
    frames

(* Drive one daemon to [samples], returning the stats frame bytes and
   each query's final marginal estimates keyed by name. [specs] gives
   (name, label) registration order — the thing that must not matter. *)
let run_daemon_to_completion specs =
  let path = fresh_socket_path () in
  let samples = 12 in
  let cfg =
    { (Serve.Daemon.default_config ~socket_path:path) with
      Serve.Daemon.thin = 1;
      max_samples = samples;
      await_queries = List.length specs }
  in
  let daemon = Serve.Daemon.of_registry cfg (Serve.Registry.create (make_pdb ~thin:1 ())) in
  let c = connect path in
  let ids =
    List.map
      (fun (name, lbl) ->
        let id =
          rpc daemon c
            (P.Register { sql = sql_for lbl; name = Some name })
            (function P.Registered { query; _ } -> Some query | _ -> None)
        in
        (name, id))
      specs
  in
  let ticks = ref 0 in
  while Serve.Daemon.samples daemon < samples && !ticks < 10_000 do
    Serve.Daemon.tick daemon ~timeout:0.;
    incr ticks
  done;
  Alcotest.(check int) "chain ran out" samples (Serve.Daemon.samples daemon);
  let stats =
    rpc daemon c P.Stats (function
      | P.Stats_reply _ as r -> Some (P.encode_response r)
      | _ -> None)
  in
  let marginals =
    List.map
      (fun (name, id) ->
        let estimates =
          rpc daemon c
            (P.Marginals { query = id })
            (function
              | P.Marginals_reply { query; estimates; _ } when query = id ->
                  Some estimates
              | _ -> None)
        in
        (name, estimates))
      ids
  in
  disconnect c;
  Serve.Daemon.close daemon;
  if Sys.file_exists path then Sys.remove path;
  (stats, List.sort compare marginals)

(* Two daemons over the same seeded corpus, queries registered in
   permuted order: the stats frame and every per-name estimates payload
   must serialize byte-identically. Wire ids differ by construction, so
   the estimates are re-framed under a fixed id before comparing. *)
let test_registration_order_immaterial () =
  let stats_a, marg_a =
    run_daemon_to_completion
      [ ("alpha", "B-PER"); ("beta", "B-ORG"); ("gamma", "B-LOC") ]
  in
  let stats_b, marg_b =
    run_daemon_to_completion
      [ ("gamma", "B-LOC"); ("alpha", "B-PER"); ("beta", "B-ORG") ]
  in
  Alcotest.(check string) "stats frames byte-identical" stats_a stats_b;
  Alcotest.(check int) "same query set" (List.length marg_a) (List.length marg_b);
  List.iter2
    (fun (na, ea) (nb, eb) ->
      let frame name estimates =
        P.encode_response
          (P.Marginals_reply { query = 0; name; samples = 0; estimates })
      in
      Alcotest.(check string) "query name" na nb;
      Alcotest.(check string)
        (Printf.sprintf "marginals for %s byte-identical" na)
        (frame na ea) (frame nb eb))
    marg_a marg_b

(* Regression pin for the daemon's sorted emission ([subs_in_order]):
   with several streamed subscriptions, the updates of one sample wave
   must arrive in ascending wire-id order. The pre-fix emitter walked
   the subscription Hashtbl in hash order, which scrambles six ids. *)
let test_update_emission_order () =
  let path = fresh_socket_path () in
  let samples = 8 in
  let labels = [ "B-PER"; "I-PER"; "B-ORG"; "I-ORG"; "B-LOC"; "O" ] in
  let cfg =
    { (Serve.Daemon.default_config ~socket_path:path) with
      Serve.Daemon.thin = 1;
      max_samples = samples;
      await_queries = List.length labels }
  in
  let daemon = Serve.Daemon.of_registry cfg (Serve.Registry.create (make_pdb ~thin:1 ())) in
  let c = connect path in
  List.iter
    (fun lbl ->
      let q =
        rpc daemon c
          (P.Register { sql = sql_for lbl; name = Some lbl })
          (function P.Registered { query; _ } -> Some query | _ -> None)
      in
      ignore
        (rpc daemon c
           (P.Stream { query = q; every = 1 })
           (function P.Streaming { query; _ } when query = q -> Some () | _ -> None)))
    labels;
  let last_sample = ref (-1) and last_query = ref (-1) in
  let ordered_pairs = ref 0 in
  let ticks = ref 0 in
  while Serve.Daemon.samples daemon < samples && !ticks < 10_000 do
    Serve.Daemon.tick daemon ~timeout:0.;
    incr ticks;
    let rec pump () =
      match next_frame c with
      | None -> ()
      | Some (P.Update { query; sample; _ }) ->
          if sample = !last_sample then begin
            if query <= !last_query then
              Alcotest.failf "sample %d: update for query %d arrived after query %d"
                sample query !last_query;
            incr ordered_pairs
          end;
          last_sample := sample;
          last_query := query;
          pump ()
      | Some _ -> pump ()
    in
    pump ()
  done;
  Alcotest.(check bool)
    "saw same-sample update pairs to order-check" true (!ordered_pairs > 0);
  disconnect c;
  Serve.Daemon.close daemon;
  if Sys.file_exists path then Sys.remove path

(* Two connections stream one query at every = 1: a reader that keeps up
   and a slow client that sleeps until the chain stops. Each sample's
   update is encoded once, so what the slow client finally receives —
   from its buffer or promoted from its drop-oldest latch — is byte for
   byte the frame the reader got for that sample, and the encode counter
   grows with samples, not with subscribers. *)
let test_update_frame_shared () =
  let encodes () =
    match Obs.Metrics.find Obs.Metrics.global "daemon.update_encodes" with
    | Some (Obs.Metrics.Counter n) -> n
    | _ -> 0
  in
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled false) @@ fun () ->
  let samples = 40 in
  let path = fresh_socket_path () in
  let cfg =
    { (Serve.Daemon.default_config ~socket_path:path) with
      Serve.Daemon.thin = 1;
      max_samples = samples;
      await_queries = 1;
      sndbuf_bytes = 2 * 1024;
      slow_client_bytes = 512 }
  in
  let encodes0 = encodes () in
  let daemon =
    Serve.Daemon.of_registry cfg (Serve.Registry.create (make_pdb ~n_tokens:200 ~thin:1 ()))
  in
  let reader = connect path and slow = connect path in
  let q =
    rpc daemon reader
      (P.Register { sql = sql_for "B-PER"; name = Some "B-PER" })
      (function P.Registered { query; _ } -> Some query | _ -> None)
  in
  let subscribe c =
    ignore
      (rpc daemon c
         (P.Stream { query = q; every = 1 })
         (function P.Streaming { query; _ } when query = q -> Some () | _ -> None))
  in
  subscribe reader;
  subscribe slow;
  (* Raw update lines by sample, whatever else the connection holds. *)
  let take_updates c into =
    drain c;
    List.iter
      (fun line ->
        match P.decode_response line with
        | Result.Ok (P.Update { sample; _ }) -> Hashtbl.replace into sample line
        | _ -> ())
      c.lines;
    c.lines <- []
  in
  let seen_by_reader = Hashtbl.create 64 and seen_by_slow = Hashtbl.create 64 in
  let ticks = ref 0 in
  while Serve.Daemon.samples daemon < samples && !ticks < 10_000 do
    Serve.Daemon.tick daemon ~timeout:0.;
    take_updates reader seen_by_reader;
    incr ticks
  done;
  Alcotest.(check int) "chain reached max_samples" samples (Serve.Daemon.samples daemon);
  Alcotest.(check bool) "the slow client coalesced" true (Serve.Daemon.coalesced daemon > 0);
  for _ = 1 to 200 do
    Serve.Daemon.tick daemon ~timeout:0.;
    take_updates reader seen_by_reader;
    take_updates slow seen_by_slow
  done;
  Alcotest.(check bool) "the slow client got the newest sample" true
    (Hashtbl.mem seen_by_slow samples);
  Hashtbl.iter
    (fun sample line ->
      match Hashtbl.find_opt seen_by_reader sample with
      | None -> Alcotest.failf "sample %d reached the slow client only" sample
      | Some frame ->
          Alcotest.(check string) (Printf.sprintf "sample %d frame bytes" sample) frame line)
    seen_by_slow;
  let n = encodes () - encodes0 in
  Alcotest.(check bool)
    (Printf.sprintf "%d encodes for %d samples of one query" n samples)
    true
    (n > 0 && n <= samples);
  disconnect reader;
  disconnect slow;
  Serve.Daemon.close daemon;
  if Sys.file_exists path then Sys.remove path

let () =
  Alcotest.run "daemon"
    [ ( "protocol",
        [ QCheck_alcotest.to_alcotest prop_request_roundtrip;
          QCheck_alcotest.to_alcotest prop_response_roundtrip;
          QCheck_alcotest.to_alcotest prop_fuzz_mutated;
          QCheck_alcotest.to_alcotest prop_fuzz_truncated;
          Alcotest.test_case "1 MB lines" `Quick test_megabyte_lines;
          Alcotest.test_case "decode classification" `Quick test_decode_classification;
          Alcotest.test_case "error-code strings" `Quick test_error_code_strings;
          Alcotest.test_case "frames serialize with key-sorted fields" `Quick
            test_frame_field_order ] );
      ( "scheduler",
        [ Alcotest.test_case "short windows dense" `Quick test_scheduler_short_windows;
          Alcotest.test_case "constant window dense" `Quick
            test_scheduler_constant_window;
          Alcotest.test_case "trending dense, mixed thinned" `Quick
            test_scheduler_trending_dense_mixing_thinned;
          Alcotest.test_case "diagnostics degenerate inputs" `Quick
            test_diagnostics_degenerate_inputs ] );
      ( "daemon",
        [ Alcotest.test_case "plan cap rejects, reattach passes" `Quick
            test_plan_cap_rejection;
          Alcotest.test_case "client cap rejects" `Quick test_client_cap_rejection;
          Alcotest.test_case "slow client coalesces" `Quick
            test_slow_client_coalescing;
          Alcotest.test_case "registration order immaterial to frames" `Quick
            test_registration_order_immaterial;
          Alcotest.test_case "updates emitted in wire-id order" `Quick
            test_update_emission_order;
          Alcotest.test_case "one update frame shared by all subscribers" `Quick
            test_update_frame_shared ] ) ]
