(* Daemon serving bench: registration latency under shared subplans,
   slow-client coalescing, admission control, and the crash/resume twin
   comparison — all through the real socket protocol, driven in-process
   tick by tick so the numbers are deterministic.

   The "crash" here is [Serve.Daemon.close] (sockets released, no final
   checkpoint, journal writer abandoned) — the same durable state a
   SIGKILL leaves behind with fsync_every = 1; tools/daemon_smoke.sh
   does the real kill -9 through the CLI. Writes BENCH_daemon.json for
   the bench gate (bench/gate/gate.ml). *)

let labels =
  [ "B-PER"; "I-PER"; "B-ORG"; "I-ORG"; "B-LOC"; "I-LOC"; "B-MISC"; "I-MISC" ]

let queries =
  List.mapi
    (fun i lbl ->
      (Printf.sprintf "q%d" (i + 1),
       Printf.sprintf "SELECT STRING FROM TOKEN WHERE LABEL='%s'" lbl))
    labels

(* The daemon's chain, fresh- and restore-side: [proposals_per_batch]
   aligned with [thin] so batch reloads land on sample boundaries and a
   WAL resume is sample-path identical (same trick as micro.ml's WAL
   bench and the CLI's daemon_pdb_of_db). *)
let chain_of_db ~thin db =
  let world = Core.World.create db in
  let crf = Ie.Crf.create ~params:(Ie.Crf.default_params ()) world in
  let rng = Mcmc.Rng.create 177 in
  let proposal = Ie.Proposals.batched_flip ~proposals_per_batch:thin ~rng crf in
  Core.Pdb.create ~world ~proposal ~rng

let make_pdb ~n_tokens ~thin =
  let docs = Ie.Corpus.generate_tokens ~seed:91 ~n_tokens in
  let db = Relational.Database.create () in
  ignore (Ie.Token_table.load db docs : Relational.Table.t);
  let pdb = chain_of_db ~thin db in
  let burn = (((4 * n_tokens) + thin - 1) / thin) * thin in
  Core.Pdb.walk pdb ~steps:burn;
  pdb

(* ---------- a minimal in-process line client ---------- *)

type cli = { fd : Unix.file_descr; buf : Buffer.t; mutable lines : string list }

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  Unix.set_nonblock fd;
  { fd; buf = Buffer.create 256; lines = [] }

let disconnect c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c req =
  let line = Serve.Protocol.encode_request req ^ "\n" in
  (* The daemon drains its socket every tick, so a blocking-sized write
     always fits; requests are tiny. *)
  ignore (Unix.write_substring c.fd line 0 (String.length line))

(* Pull whatever the socket has into the line queue. *)
let drain c =
  let chunk = Bytes.create 4096 in
  let rec read_all () =
    match Unix.read c.fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes c.buf chunk 0 n;
        read_all ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
  in
  read_all ();
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

let next_frame c =
  drain c;
  match c.lines with
  | [] -> None
  | line :: rest -> (
      c.lines <- rest;
      match Serve.Protocol.decode_response line with
      | Result.Ok resp -> Some resp
      | Result.Error msg -> failwith ("daemon bench: undecodable frame: " ^ msg))

(* Tick the daemon until [pred] matches a frame from [c]; non-matching
   frames (stream updates in flight) are dropped. *)
let await daemon c pred =
  let rec go tries =
    if tries > 200_000 then failwith "daemon bench: no matching reply";
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

let register daemon c ~name ~sql =
  rpc daemon c
    (Serve.Protocol.Register { sql; name = Some name })
    (function
      | Serve.Protocol.Registered { query; _ } -> Some query
      | Serve.Protocol.Error { code; msg } ->
          failwith
            (Printf.sprintf "daemon bench: register rejected (%s): %s"
               (Serve.Protocol.error_code_to_string code)
               msg)
      | _ -> None)

let detach daemon c query =
  rpc daemon c
    (Serve.Protocol.Detach { query })
    (function
      | Serve.Protocol.Detached { name; estimates; _ } -> Some (name, estimates)
      | _ -> None)

(* ---------- the measured scenario ---------- *)

let estimates_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (ra, pa) (rb, pb) ->
         String.equal ra rb && Int64.equal (Int64.bits_of_float pa) (Int64.bits_of_float pb))
       a b

let fresh_dir () =
  let dir = Filename.temp_file "pdb_bench_daemon" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  dir

let rm_rf dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let daemon_config dir =
  {
    (Serve.Daemon.default_config ~socket_path:(Filename.concat dir "d.sock")) with
    Serve.Daemon.max_clients = 16;
    max_plans = 8;
    max_bootstraps_per_tick = 8;
    await_queries = List.length queries;
    slow_client_bytes = 2 * 1024;
    sndbuf_bytes = 4 * 1024;
  }

let start_durable ~n_tokens ~thin ~max_samples dir =
  let cfg = { (daemon_config dir) with Serve.Daemon.thin; max_samples } in
  let reg = Serve.Registry.create (make_pdb ~n_tokens ~thin) in
  let durable =
    Serve.Durable.start
      ~snap_path:(Filename.concat dir "daemon.ckpt")
      ~wal_path:(Filename.concat dir "daemon.wal")
      { Serve.Durable.fsync_every = 1; compact_ratio = 1e9 }
      reg
  in
  Serve.Daemon.of_durable cfg durable

type result = {
  r_first_register_ns : int;
  r_last_register_ns : int;
  r_updates_seen : int;
  r_coalesced : int;
  r_thinned : int;
  r_rejected : int;
  r_tick_ns_mean : int;
  r_admission_ok : bool;
  r_coalescing_ok : bool;
  r_resume_equal : bool;
}

(* Twin A: uninterrupted. Returns per-query frozen marginals plus every
   measured number. *)
let run_twin_a ~n_tokens ~thin ~samples dir =
  let daemon = start_durable ~n_tokens ~thin ~max_samples:samples dir in
  let sock = Filename.concat dir "d.sock" in
  (* Registration latency, client-observed round-trip: the first query
     pays full compilation + bootstrap; the 8th shares the scan subplan
     already in the cache. *)
  let reader = connect sock in
  let reg_ns = ref [] in
  let ids =
    List.map
      (fun (name, sql) ->
        let t0 = Obs.Timer.start () in
        let id = register daemon reader ~name ~sql in
        reg_ns := Obs.Timer.elapsed_ns t0 :: !reg_ns;
        id)
      queries
  in
  let reg_ns = List.rev !reg_ns in
  let first_ns = List.hd reg_ns in
  let last_ns = List.nth reg_ns (List.length reg_ns - 1) in
  (* The reader streams every query on the scheduler's cadence; the slow
     client subscribes to everything densely and never reads. *)
  List.iter
    (fun id ->
      ignore
        (rpc daemon reader
           (Serve.Protocol.Stream { query = id; every = 0 })
           (function Serve.Protocol.Streaming _ -> Some () | _ -> None)))
    ids;
  let slow = connect sock in
  List.iter
    (fun id ->
      ignore
        (rpc daemon slow
           (Serve.Protocol.Stream { query = id; every = 1 })
           (function Serve.Protocol.Streaming _ -> Some () | _ -> None)))
    ids;
  (* Sample the chain out, counting reader updates and mean tick time.
     The slow client's socket fills and must coalesce without slowing
     the loop down. *)
  let updates = ref 0 in
  let tick_ns = ref 0 and ticks = ref 0 in
  while Serve.Daemon.samples daemon < samples do
    let t0 = Obs.Timer.start () in
    Serve.Daemon.tick daemon ~timeout:0.;
    tick_ns := !tick_ns + Obs.Timer.elapsed_ns t0;
    incr ticks;
    let rec count () =
      match next_frame reader with
      | None -> ()
      | Some (Serve.Protocol.Update _) ->
          incr updates;
          count ()
      | Some _ -> count ()
    in
    count ()
  done;
  (* Admission: the plan cap (8) is full, so one more registration must
     be rejected with the typed error, not queued. *)
  let admission_ok =
    rpc daemon reader
      (Serve.Protocol.Register
         { sql = "SELECT STRING FROM TOKEN WHERE LABEL='O'"; name = Some "q9" })
      (function
        | Serve.Protocol.Error { code = Serve.Protocol.Admission_plans; _ } ->
            Some true
        | Serve.Protocol.Registered _ -> Some false
        | _ -> None)
  in
  let frozen = List.map (fun id -> detach daemon reader id) ids in
  let r =
    {
      r_first_register_ns = first_ns;
      r_last_register_ns = last_ns;
      r_updates_seen = !updates;
      r_coalesced = Serve.Daemon.coalesced daemon;
      r_thinned = Serve.Daemon.thinned daemon;
      r_rejected = Serve.Daemon.rejected daemon;
      r_tick_ns_mean = (if !ticks = 0 then 0 else !tick_ns / !ticks);
      r_admission_ok = admission_ok;
      r_coalescing_ok = Serve.Daemon.coalesced daemon > 0;
      r_resume_equal = false (* filled by the twin comparison *);
    }
  in
  ignore
    (rpc daemon reader Serve.Protocol.Shutdown (function
      | Serve.Protocol.Bye -> Some ()
      | _ -> None));
  disconnect reader;
  disconnect slow;
  Serve.Daemon.run daemon (* shutdown already requested: close + final checkpoint *);
  (frozen, r)

(* Twin B: same daemon, "killed" at half the samples (sockets dropped,
   no checkpoint — exactly what SIGKILL leaves with fsync_every = 1),
   resumed from snapshot + WAL, clients reattach by name and detach. *)
let run_twin_b ~n_tokens ~thin ~samples dir =
  let daemon = start_durable ~n_tokens ~thin ~max_samples:samples dir in
  let sock = Filename.concat dir "d.sock" in
  let c = connect sock in
  List.iter
    (fun (name, sql) -> ignore (register daemon c ~name ~sql : int))
    queries;
  while Serve.Daemon.samples daemon < samples / 2 do
    Serve.Daemon.tick daemon ~timeout:0.
  done;
  Serve.Daemon.close daemon;
  disconnect c;
  (* Resume: replay the log, serve the rest of the budget. *)
  let durable =
    Serve.Durable.resume
      ~snap_path:(Filename.concat dir "daemon.ckpt")
      ~wal_path:(Filename.concat dir "daemon.wal")
      { Serve.Durable.fsync_every = 1; compact_ratio = 1e9 }
      ~make_pdb:(chain_of_db ~thin)
  in
  let cfg = { (daemon_config dir) with Serve.Daemon.thin; max_samples = samples } in
  let daemon = Serve.Daemon.of_durable cfg durable in
  let c = connect sock in
  let ids =
    List.map (fun (name, sql) -> register daemon c ~name ~sql) queries
  in
  while Serve.Daemon.samples daemon < samples do
    Serve.Daemon.tick daemon ~timeout:0.
  done;
  let frozen = List.map (fun id -> detach daemon c id) ids in
  ignore
    (rpc daemon c Serve.Protocol.Shutdown (function
      | Serve.Protocol.Bye -> Some ()
      | _ -> None));
  disconnect c;
  Serve.Daemon.run daemon;
  frozen

let write_bench_json path ~n_tokens ~thin ~samples r =
  let b v = if v then "true" else "false" in
  let oc = open_out path in
  output_string oc
    (Obs.Jsonx.obj
       [ ("config",
          Obs.Jsonx.obj
            [ ("n_tokens", Obs.Jsonx.int n_tokens);
              ("thin", Obs.Jsonx.int thin);
              ("samples", Obs.Jsonx.int samples);
              ("queries", Obs.Jsonx.int (List.length queries)) ]);
         ("daemon",
          Obs.Jsonx.obj
            [ ("first_register_ns", Obs.Jsonx.int r.r_first_register_ns);
              ("last_register_ns", Obs.Jsonx.int r.r_last_register_ns);
              ("register_amortization",
               Obs.Jsonx.float
                 (float_of_int r.r_first_register_ns
                 /. float_of_int (max 1 r.r_last_register_ns)));
              ("updates_seen", Obs.Jsonx.int r.r_updates_seen);
              ("coalesced_updates", Obs.Jsonx.int r.r_coalesced);
              ("sched_thinned", Obs.Jsonx.int r.r_thinned);
              ("rejected", Obs.Jsonx.int r.r_rejected);
              ("tick_ns_mean", Obs.Jsonx.int r.r_tick_ns_mean);
              ("admission_ok", b r.r_admission_ok);
              ("coalescing_ok", b r.r_coalescing_ok);
              ("resume_marginals_equal", b r.r_resume_equal) ]) ]);
  output_string oc "\n";
  close_out oc;
  Printf.printf "\ndaemon bench written to %s\n%!" path

let run ?(smoke = false) () =
  Harness.print_header
    (if smoke then "query daemon (smoke)"
     else "query daemon (admission, coalescing, crash/resume)");
  let n_tokens = if smoke then 2_000 else 10_000 in
  let thin = if smoke then 20 else 50 in
  let samples = if smoke then 40 else 120 in
  let dir_a = fresh_dir () and dir_b = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir_a; rm_rf dir_b) @@ fun () ->
  let frozen_a, r = run_twin_a ~n_tokens ~thin ~samples dir_a in
  let frozen_b = run_twin_b ~n_tokens ~thin ~samples dir_b in
  let resume_equal =
    List.length frozen_a = List.length frozen_b
    && List.for_all2
         (fun (na, ea) (nb, eb) -> String.equal na nb && estimates_equal ea eb)
         frozen_a frozen_b
  in
  let r = { r with r_resume_equal = resume_equal } in
  Printf.printf
    "  %d queries, %d samples: register 1st %.2f ms vs 8th %.2f ms (%.1fx), %d updates \
     to the live reader, %d coalesced for the slow one, %d thinned, tick %.1f us, \
     admission %s, crash/resume marginals %s\n%!"
    (List.length queries) samples
    (float_of_int r.r_first_register_ns /. 1e6)
    (float_of_int r.r_last_register_ns /. 1e6)
    (float_of_int r.r_first_register_ns /. float_of_int (max 1 r.r_last_register_ns))
    r.r_updates_seen r.r_coalesced r.r_thinned
    (float_of_int r.r_tick_ns_mean /. 1e3)
    (if r.r_admission_ok then "enforced" else "NOT ENFORCED")
    (if resume_equal then "equal" else "DIVERGED");
  if not resume_equal then failwith "daemon bench: crash/resume marginals diverged";
  if not r.r_admission_ok then failwith "daemon bench: plan cap not enforced";
  if not r.r_coalescing_ok then failwith "daemon bench: slow client never coalesced";
  write_bench_json "BENCH_daemon.json" ~n_tokens ~thin ~samples r
