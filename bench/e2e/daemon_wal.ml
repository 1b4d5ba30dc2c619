(* daemon-wal — the socket daemon over a journaled registry, driven tick
   by tick in-process through the real wire protocol.

   100k tokens of the skip-chain CRF, burned in for 4n steps during
   set-up, served by [Serve.Daemon.of_durable] at thin 50 with the CLI's
   group commit (fsync every 25 appends) and a compaction ratio of 0.05,
   lowered from 4.0 so the log is compacted several times per run. Eight
   standing label queries; the run covers [200 x seconds] samples.

   Connection 1 registers the standing queries, streams them at the
   scheduler's cadence (every = 0) and churns: every 20 samples it
   registers one more query — alternately a second copy of a standing
   query (a plan-cache hit) and a Query-4 join on a fresh city constant
   (a full bootstrap) — and detaches the oldest once more than 4 are
   live. Connection 2 subscribes to every standing query at every = 1
   and never reads, so once its socket buffer and the daemon's 64 KiB
   slow-client threshold fill (within about 20 samples) its updates
   coalesce. The loop is closed: connection 1 waits for each reply before
   its next request. *)

open Measure

let labels = [| "B-PER"; "I-PER"; "B-ORG"; "I-ORG"; "B-LOC"; "I-LOC"; "B-MISC"; "I-MISC" |]
let standing = Array.map (Printf.sprintf "SELECT STRING FROM TOKEN WHERE LABEL='%s'") labels

let join_on city =
  Printf.sprintf
    "SELECT T2.STRING FROM TOKEN T1, TOKEN T2 WHERE T1.STRING='%s' AND T1.LABEL='B-ORG' AND \
     T1.DOC_ID=T2.DOC_ID AND T2.LABEL='B-PER'"
    city

type sizes = {
  n_tokens : int;
  thin : int;
  burn_in : int;
  samples : int;
  churn_every : int;
  live_churn : int;
  policy : Serve.Durable.policy;
}

let sizes (cfg : Workload.config) =
  let n_tokens, thin, samples, churn_every =
    if cfg.smoke then (2_000, 10, 60, 10) else (100_000, 50, 200 * cfg.seconds, 20)
  in
  { n_tokens; thin; burn_in = 4 * n_tokens; samples; churn_every; live_churn = 4;
    policy = { Serve.Durable.fsync_every = 25; compact_ratio = 0.05 } }

type instance = {
  c : Workload.chain;
  daemon : Serve.Daemon.t;
  durable : Serve.Durable.t;
  socket : string;
}

let build sz ~dir ~traced ~corpus_seed ~chain_seed i () =
  let c =
    Workload.chain ~n_tokens:sz.n_tokens ~thin:sz.thin ~burn_in:sz.burn_in ~traced ~corpus_seed
      ~chain_seed ()
  in
  let file name = Filename.concat dir (Printf.sprintf "%s%d" name i) in
  let socket = file "d.sock" in
  let durable =
    Serve.Durable.start ~snap_path:(file "snap") ~wal_path:(file "wal") sz.policy
      (Serve.Registry.create c.pdb)
  in
  let config =
    { (Serve.Daemon.default_config ~socket_path:socket) with
      Serve.Daemon.thin = sz.thin;
      max_samples = sz.samples;
      await_queries = Array.length standing }
  in
  { c; daemon = Serve.Daemon.of_durable config durable; durable; socket }

let discard inst =
  Serve.Daemon.close inst.daemon;
  Serve.Durable.close inst.durable

(* ---------- the client side ---------- *)

type client = { fd : Unix.file_descr; buf : Buffer.t }

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  Unix.set_nonblock fd;
  { fd; buf = Buffer.create 4096 }

(* Complete lines the socket holds, oldest first. *)
let read_lines c =
  let chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read c.fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes c.buf chunk 0 n;
      go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  in
  go ();
  let s = Buffer.contents c.buf in
  let rec split pos acc =
    match String.index_from_opt s pos '\n' with
    | None -> (List.rev acc, pos)
    | Some nl -> split (nl + 1) (String.sub s pos (nl - pos) :: acc)
  in
  let lines, rest = split 0 [] in
  Buffer.clear c.buf;
  Buffer.add_substring c.buf s rest (String.length s - rest);
  lines

(* What one run observed, beyond the latency vectors. *)
type tally = {
  mutable requests : int;
  mutable frames : int;
  mutable bad_frames : int;  (* undecodable, or an error frame nobody expected *)
  mutable timeouts : int;
  mutable updates : int;
  mutable update_bytes : int;
  mutable decode_ns : int;
  mutable stall_max : int;  (* longest tick that ran a compaction *)
  mutable register_ticks : int;
  mutable register_tick_ns : int;
  mutable plain_ticks : int;
  mutable plain_self_ns : int;  (* tick time outside the named layers *)
}

let layer_ns probe =
  let _, wal, _ = hist "wal.append_ns" and _, ckpt, _ = hist "checkpoint.write_ns" in
  counter "mcmc.score_ns" + counter "serve.fanout_ns" + wal + ckpt + probe.commit_ns

type session = {
  inst : instance;
  reg : Serve.Registry.t;
  reader : client;
  traced : bool;
  tally : tally;
  latencies : vec;
}

(* One daemon tick, then whatever connection 1 received. Ticks that
   advanced the chain are the sample latencies; replies are returned,
   stream updates only counted. *)
let tick s =
  let d = s.inst.daemon in
  let samples0 = Serve.Daemon.samples d in
  let queries0 = Serve.Registry.query_count s.reg in
  let compactions0 = Serve.Durable.compactions s.inst.durable in
  let layers0 = if s.traced then layer_ns s.inst.c.probe else 0 in
  let (), ns = timed (fun () -> span "daemon.tick" (fun () -> Serve.Daemon.tick d ~timeout:0.)) in
  let t = s.tally in
  if Serve.Daemon.samples d > samples0 then begin
    push s.latencies ns;
    if Serve.Durable.compactions s.inst.durable > compactions0 then
      t.stall_max <- max t.stall_max ns;
    if Serve.Registry.query_count s.reg > queries0 then begin
      t.register_ticks <- t.register_ticks + 1;
      t.register_tick_ns <- t.register_tick_ns + ns
    end
    else if s.traced then begin
      t.plain_ticks <- t.plain_ticks + 1;
      t.plain_self_ns <- t.plain_self_ns + ns - (layer_ns s.inst.c.probe - layers0)
    end
  end;
  List.filter_map
    (fun line ->
      t.frames <- t.frames + 1;
      let decoded, dns =
        timed (fun () -> span "protocol.decode" (fun () -> Serve.Protocol.decode_response line))
      in
      t.decode_ns <- t.decode_ns + dns;
      match decoded with
      | Ok (Serve.Protocol.Update _) ->
        t.updates <- t.updates + 1;
        t.update_bytes <- t.update_bytes + String.length line;
        None
      | Ok r -> Some r
      | Error _ ->
        t.bad_frames <- t.bad_frames + 1;
        None)
    (read_lines s.reader)

let send s c req =
  let line = Serve.Protocol.encode_request req ^ "\n" in
  s.tally.requests <- s.tally.requests + 1;
  span "client.send" (fun () ->
      ignore (Unix.write_substring c.fd line 0 (String.length line) : int))

(* Send [req] on connection 1 and tick until [expect] accepts a reply;
   the round trip in ns. Any other reply is an unexpected frame. *)
let rpc s req expect =
  let t0 = now () in
  send s s.reader req;
  let rec wait ticks =
    if ticks > 100_000 then begin
      s.tally.timeouts <- s.tally.timeouts + 1;
      None
    end
    else
      let rec scan = function
        | [] -> wait (ticks + 1)
        | r :: rest -> (
          match expect r with
          | Some v -> Some v
          | None ->
            s.tally.bad_frames <- s.tally.bad_frames + 1;
            scan rest)
      in
      scan (tick s)
  in
  let v = wait 0 in
  (v, now () - t0)

let register s registers ~name ~sql =
  let id, ns =
    rpc s (Serve.Protocol.Register { sql; name = Some name }) (function
      | Serve.Protocol.Registered { query; _ } -> Some query
      | _ -> None)
  in
  push registers ns;
  id

let detach s id =
  fst
    (rpc s (Serve.Protocol.Detach { query = id }) (function
      | Serve.Protocol.Detached { samples; estimates; _ } -> Some (samples, estimates)
      | _ -> None))

let stream s id =
  ignore
    (rpc s (Serve.Protocol.Stream { query = id; every = 0 }) (function
       | Serve.Protocol.Streaming _ -> Some ()
       | _ -> None))

let run (cfg : Workload.config) =
  let sz = sizes cfg in
  let seeds = Workload.seeds cfg 3 in
  Workload.with_scratch @@ fun dir ->
  (* Every set-up gets its own socket, snapshot and log file names. *)
  let count = ref 0 in
  let build () =
    incr count;
    build sz ~dir ~traced:cfg.traced ~corpus_seed:seeds.(0) ~chain_seed:seeds.(1) !count ()
  in
  let setups = Workload.setups () and phases i = i.c.phases in
  Workload.extra_setups setups ~rounds:1 ~phases ~discard build;
  let inst = Workload.setup setups ~phases build in
  let churn_rng = Mcmc.Rng.create seeds.(2) in
  let cities = Array.copy Ie.Lexicon.locations in
  Mcmc.Rng.shuffle churn_rng cities;
  let tally =
    { requests = 0; frames = 0; bad_frames = 0; timeouts = 0; updates = 0; update_bytes = 0;
      decode_ns = 0; stall_max = 0; register_ticks = 0; register_tick_ns = 0; plain_ticks = 0;
      plain_self_ns = 0 }
  in
  let registers = vec () in
  let s =
    { inst; reg = Serve.Durable.registry inst.durable; reader = connect inst.socket;
      traced = cfg.traced; tally; latencies = vec () }
  in
  let slow = connect inst.socket in
  let d = inst.daemon in
  let compactions0 = Serve.Durable.compactions inst.durable in
  Workload.start_tracing cfg;
  let live, timed_ns =
    Workload.timed_round (fun () ->
        span "timed" (fun () ->
            let ids =
              List.filter_map Fun.id
                (List.mapi
                   (fun i sql -> register s registers ~name:(Printf.sprintf "s%d" i) ~sql)
                   (Array.to_list standing))
            in
            List.iter (stream s) ids;
            List.iter (fun id -> send s slow (Serve.Protocol.Stream { query = id; every = 1 })) ids;
            (* Churned queries, oldest first. *)
            let churn = Queue.create () in
            let next_churn = ref sz.churn_every and k = ref 0 in
            while Serve.Daemon.samples d < sz.samples && tally.timeouts = 0 do
              List.iter (fun _ -> tally.bad_frames <- tally.bad_frames + 1) (tick s);
              let at = Serve.Daemon.samples d in
              if at >= !next_churn && at < sz.samples then begin
                next_churn := !next_churn + sz.churn_every;
                let sql =
                  if !k mod 2 = 0 then standing.(Mcmc.Rng.int churn_rng (Array.length standing))
                  else join_on cities.(!k / 2 mod Array.length cities)
                in
                Option.iter
                  (fun id -> Queue.push id churn)
                  (register s registers ~name:(Printf.sprintf "c%d" !k) ~sql);
                incr k;
                if Queue.length churn > sz.live_churn then ignore (detach s (Queue.pop churn))
              end
            done;
            ids @ List.of_seq (Queue.to_seq churn)))
  in
  let peak = peak_heap_mb () in
  let compactions = Serve.Durable.compactions inst.durable - compactions0 in
  let samples = Serve.Daemon.samples d in
  let layers =
    if not cfg.traced then []
    else begin
      let n = float_of_int (max 1 samples) in
      let obs name = float_of_int (counter name) in
      let fsyncs, fsync_ns, _ = hist "wal.fsync_ns" in
      let appends, append_ns, _ = hist "wal.append_ns" in
      let writes, write_ns, _ = hist "checkpoint.write_ns" in
      close_walks inst.c.probe;
      Workload.chain_layers [ inst.c.probe ] ~samples
      @ [ ("core.world.delta_rows", ratio !Workload.delta_rows !Workload.delta_events);
          ("relational.view.probe_rows", obs "view.join.probe_rows" /. n);
          ("serve.registry.fanout_ms", to_ms (counter "serve.fanout_ns") /. n);
          ("serve.registry.bootstrap_evals", obs "serve.bootstrap_evals");
          ("wal_bytes_per_sample", obs "wal.append_bytes" /. n);
          ("checkpoint.wal.append_us", ratio append_ns appends /. 1e3);
          ("checkpoint.wal.fsync_ms", ratio fsync_ns fsyncs /. 1e6);
          ("checkpoint.wal.fsyncs", float_of_int fsyncs);
          ("serve.durable.compactions", float_of_int compactions);
          ("serve.durable.compaction_ms", ratio write_ns writes /. 1e6);
          ("serve.durable.stall_ms_max", to_ms tally.stall_max);
          ("serve.daemon.tick_self_ms", ratio tally.plain_self_ns tally.plain_ticks /. 1e6);
          ("serve.daemon.register_stall_ms",
           ratio tally.register_tick_ns tally.register_ticks /. 1e6);
          ("serve.daemon.updates_per_sample", float_of_int tally.updates /. n);
          ("serve.daemon.coalesced_per_sample", float_of_int (Serve.Daemon.coalesced d) /. n);
          ("serve.daemon.thinned_per_sample", float_of_int (Serve.Daemon.thinned d) /. n);
          ("serve.daemon.rejected", float_of_int (Serve.Daemon.rejected d));
          ("serve.protocol.decode_us", ratio tally.decode_ns tally.frames /. 1e3);
          ("serve.protocol.update_frame_bytes", ratio tally.update_bytes tally.updates) ]
      @ Workload.register_metrics registers
      @ Workload.gc_metrics ~samples
    end
  in
  Workload.stop_tracing ();
  (* Off the clock: freeze every live query, then shut down cleanly. *)
  let frozen = List.filter_map (detach s) live in
  let bye =
    rpc s Serve.Protocol.Shutdown (function Serve.Protocol.Bye -> Some () | _ -> None)
  in
  Unix.close s.reader.fd;
  Unix.close slow.fd;
  (* Bye acknowledged: run closes sockets and journal. Without it the
     loop would never stop, so release them directly. *)
  if Option.is_some (fst bye) then Serve.Daemon.run d else discard inst;
  let lost = List.length live - List.length frozen + if Option.is_none (fst bye) then 1 else 0 in
  let setup_s, setup_layers = Workload.setup_metrics setups in
  { Workload.e2e =
      [ setup_s;
        ("time_to_target_s", to_s timed_ns);
        ("proposals_per_s", float_of_int (samples * sz.thin) /. to_s timed_ns) ]
      @ Workload.sample_metrics s.latencies
      @ [ ("peak_heap_mb", peak) ];
    layers =
      setup_layers
      @ layers
      @ [ ("core.marginals.support_rows",
           float_of_int (List.fold_left (fun acc (_, e) -> acc + List.length e) 0 frozen));
          ("bench.samples", float_of_int samples) ];
    attempted = tally.requests + tally.frames;
    failed = tally.bad_frames + tally.timeouts + lost + (if samples = sz.samples then 0 else 1);
    digest = digest_estimates frozen;
    timed_ns;
    params =
      [ ("n_tokens", string_of_int sz.n_tokens); ("thin", string_of_int sz.thin);
        ("burn_in", string_of_int sz.burn_in); ("samples", string_of_int sz.samples);
        ("standing_queries", string_of_int (Array.length standing));
        ("churn_every", string_of_int sz.churn_every); ("live_churn", string_of_int sz.live_churn);
        ("fsync_every", string_of_int sz.policy.fsync_every);
        ("compact_ratio", Printf.sprintf "%g" sz.policy.compact_ratio);
        ("registrations", string_of_int registers.len); ("compactions", string_of_int compactions);
        ("coalesced", string_of_int (Serve.Daemon.coalesced d)) ] }
