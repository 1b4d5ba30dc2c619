(* Command-line driver for the factor-graph probabilistic database.

   Subcommands:
     corpus  — generate a synthetic news corpus and print its statistics
     train   — train the skip-chain CRF with SampleRank and report accuracy
     query   — evaluate SQL over the probabilistic database by MCMC
     serve   — answer a whole file of SQL queries off one shared chain
     coref   — run entity resolution over a list of mention strings *)

open Cmdliner

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

(* Observability flags, shared by every subcommand: --metrics-out enables
   collection (lib/obs) and dumps a JSON snapshot of the run when the
   command finishes; --trace-out additionally streams JSON-lines trace
   events. See docs/OBSERVABILITY.md for the metric catalogue. *)

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:"Collect runtime metrics and write a JSON snapshot to $(docv).")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:"Stream structured trace events to $(docv) as JSON lines.")

(* [with_obs cmd_name metrics_out trace_out run] runs [run ()] under the
   requested instrumentation and writes the snapshot afterwards. *)
let with_obs cmd_name metrics_out trace_out run =
  if metrics_out <> None then Obs.Metrics.set_enabled true;
  (match trace_out with
  | None -> ()
  | Some path ->
    Obs.Trace.set_enabled true;
    (try Obs.Trace.sink_to_file path
     with Sys_error msg ->
       Printf.eprintf "error: could not open trace file: %s\n" msg;
       exit 1));
  let t0 = Obs.Timer.start () in
  Fun.protect
    ~finally:(fun () ->
      (match metrics_out with
      | None -> ()
      | Some path -> (
        try
          Obs.Snapshot.write_file
            ~meta:
              [ ("cmd", "pdb_cli " ^ cmd_name);
                ("elapsed_s",
                 Printf.sprintf "%.3f" (Obs.Timer.seconds (Obs.Timer.elapsed_ns t0))) ]
            ~path Obs.Metrics.global;
          Printf.printf "metrics snapshot written to %s\n" path
        with Sys_error msg ->
          Printf.eprintf "warning: could not write metrics snapshot: %s\n" msg));
      Obs.Trace.close ())
    run

let tokens_arg =
  Arg.(
    value
    & opt int 20_000
    & info [ "tokens"; "n" ] ~docv:"N" ~doc:"Approximate number of TOKEN tuples.")

(* ------------------------------------------------------------------ *)

let corpus_cmd =
  let run seed tokens metrics_out trace_out =
    with_obs "corpus" metrics_out trace_out @@ fun () ->
    let docs = Ie.Corpus.generate_tokens ~seed ~n_tokens:tokens in
    let total = Ie.Corpus.total_tokens docs in
    Printf.printf "documents: %d\ntokens:    %d\n" (List.length docs) total;
    let counts = Hashtbl.create 16 in
    List.iter
      (fun { Ie.Corpus.tokens; _ } ->
        Array.iter
          (fun { Ie.Corpus.truth; _ } ->
            let k = Ie.Labels.to_string truth in
            Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)))
          tokens)
      docs;
    Printf.printf "label distribution (truth):\n";
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []
    |> List.sort compare
    |> List.iter (fun (k, v) ->
           Printf.printf "  %-8s %8d (%5.2f%%)\n" k v (100. *. float_of_int v /. float_of_int total))
  in
  Cmd.v
    (Cmd.info "corpus" ~doc:"Generate the synthetic news corpus and print statistics.")
    Term.(const run $ seed_arg $ tokens_arg $ metrics_out_arg $ trace_out_arg)

(* ------------------------------------------------------------------ *)

let steps_arg =
  Arg.(value & opt int 300_000 & info [ "steps" ] ~docv:"K" ~doc:"SampleRank steps.")

let train_cmd =
  let run seed tokens steps metrics_out trace_out =
    with_obs "train" metrics_out trace_out @@ fun () ->
    let docs = Ie.Corpus.generate_tokens ~seed ~n_tokens:tokens in
    let db = Relational.Database.create () in
    ignore (Ie.Token_table.load db docs : Relational.Table.t);
    let world = Core.World.create db in
    let params = Factorgraph.Params.create () in
    let crf = Ie.Crf.create ~params world in
    let t0 = Obs.Timer.start () in
    let report = Ie.Training.train ~steps ~rng:(Mcmc.Rng.create (seed + 1)) crf in
    Printf.printf
      "steps:            %d\nweight updates:   %d\nfeatures:         %d\ntime:             %.1fs\n"
      report.Ie.Training.steps report.updates
      (Factorgraph.Params.cardinal params)
      (Obs.Timer.seconds (Obs.Timer.elapsed_ns t0));
    Printf.printf "token accuracy:   %.3f -> %.3f\n" report.accuracy_before report.accuracy_after
  in
  Cmd.v
    (Cmd.info "train" ~doc:"Train the skip-chain CRF with SampleRank.")
    Term.(const run $ seed_arg $ tokens_arg $ steps_arg $ metrics_out_arg $ trace_out_arg)

(* ------------------------------------------------------------------ *)

let sql_arg =
  Arg.(
    value
    & opt string "SELECT STRING FROM TOKEN WHERE LABEL='B-PER'"
    & info [ "sql" ] ~docv:"SQL" ~doc:"Query to evaluate over possible worlds.")

let strategy_arg =
  let strategy_conv =
    Arg.enum [ ("materialized", Core.Evaluator.Materialized); ("naive", Core.Evaluator.Naive) ]
  in
  Arg.(
    value
    & opt strategy_conv Core.Evaluator.Materialized
    & info [ "strategy" ] ~docv:"STRATEGY" ~doc:"Evaluator: $(b,materialized) or $(b,naive).")

let samples_arg =
  Arg.(value & opt int 200 & info [ "samples" ] ~docv:"S" ~doc:"Worlds to sample.")

let thin_arg =
  Arg.(value & opt int 1_000 & info [ "thin"; "k" ] ~docv:"K" ~doc:"MH steps between samples.")

let top_arg =
  Arg.(value & opt int 20 & info [ "top" ] ~docv:"T" ~doc:"Answer tuples to print.")

(* Build the NER chain (world, CRF model, proposal, RNG) over an existing
   TOKEN database. [chain] offsets the RNG seed so parallel chains get
   distinct streams over the identical initial world. This is also the
   [remake] constructor checkpoint restoration needs: the CRF reads the
   current labels out of [db] at creation, so building over a restored
   database leaves model and world consistent. *)
let ner_pdb_of_db ~seed ~chain db =
  let world = Core.World.create db in
  let crf = Ie.Crf.create ~params:(Ie.Crf.default_params ()) world in
  let rng = Mcmc.Rng.create (seed + 2 + (31 * chain)) in
  let proposal = Ie.Proposals.batched_flip ~rng crf in
  Core.Pdb.create ~world ~proposal ~rng

(* Build the NER probabilistic database every query-answering subcommand
   samples from: synthesize the corpus, load it, build the chain over it. *)
let make_ner_pdb ~seed ~tokens ~chain =
  let docs = Ie.Corpus.generate_tokens ~seed ~n_tokens:tokens in
  let db = Relational.Database.create () in
  ignore (Ie.Token_table.load db docs : Relational.Table.t);
  ner_pdb_of_db ~seed ~chain db

let print_top ~top answers =
  let answers = List.sort (fun (_, a) (_, b) -> compare b a) answers in
  List.iteri
    (fun i (row, p) ->
      if i < top then Printf.printf "  %-24s %.4f\n" (Relational.Row.to_string row) p)
    answers

let query_cmd =
  let run seed tokens sql strategy samples thin top metrics_out trace_out =
    with_obs "query" metrics_out trace_out @@ fun () ->
    let pdb = make_ner_pdb ~seed ~tokens ~chain:0 in
    let t0 = Obs.Timer.start () in
    let m =
      Core.Evaluator.evaluate_sql ~burn_in:(4 * tokens) strategy pdb ~sql ~thin ~samples
    in
    Printf.printf "evaluated %d sampled worlds in %.2fs (%s; acceptance %.2f)\n\n"
      (Core.Marginals.samples m)
      (Obs.Timer.seconds (Obs.Timer.elapsed_ns t0))
      (Core.Evaluator.strategy_name strategy)
      (Core.Pdb.acceptance_rate pdb);
    let answers = Core.Marginals.estimates m in
    Printf.printf "%d answer tuples; top %d:\n" (List.length answers) top;
    print_top ~top answers
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Evaluate a SQL query over the NER probabilistic database.")
    Term.(
      const run $ seed_arg $ tokens_arg $ sql_arg $ strategy_arg $ samples_arg $ thin_arg
      $ top_arg $ metrics_out_arg $ trace_out_arg)

(* ------------------------------------------------------------------ *)

let queries_file_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "queries" ] ~docv:"FILE"
        ~doc:"File of SQL queries, one per line (blank lines and # comments skipped).")

let chains_arg =
  Arg.(value & opt int 1 & info [ "chains" ] ~docv:"C" ~doc:"Parallel MCMC chains to pool.")

let shards_arg =
  Arg.(
    value & opt int 1
    & info [ "shards" ] ~docv:"N"
        ~doc:
          "Partition the corpus into $(docv) string-cluster shards (DESIGN.md, scale-out \
           section), run one independent chain over each slice, and union the per-query \
           answers. An alternative scale-out axis to --chains; does not combine with \
           --chains > 1 or the durability flags.")

let read_query_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | exception End_of_file -> List.rev acc
        | line ->
          let line = String.trim line in
          if line = "" || line.[0] = '#' then go acc else go (line :: acc)
      in
      go [])

let checkpoint_retries_arg =
  Arg.(
    value
    & opt int 2
    & info [ "checkpoint-retries" ] ~docv:"R"
        ~doc:"Crash retries per chain before giving up (with --wal-dir).")

let resume_arg =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Resume from the durable state a previous run left in --wal-dir: the last \
           snapshot plus the replayed delta log.")

let wal_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "wal-dir" ] ~docv:"DIR"
        ~doc:
          "Make the chains durable (docs/DURABILITY.md): each keeps a full snapshot and \
           a delta log in $(docv), appends every sample's world delta to the log — \
           O(|delta|) per sample — and rewrites the snapshot only at compaction. \
           $(b,serve) also retries a crashed chain from that state.")

let wal_fsync_every_arg =
  Arg.(
    value
    & opt int 25
    & info [ "wal-fsync-every" ] ~docv:"N"
        ~doc:
          "Group-commit batch: fsync the log every $(docv) appended records (0 = only \
           at compaction). A crash can lose at most the last unflushed batch, which the \
           resumed chain deterministically re-samples.")

let wal_compact_ratio_arg =
  Arg.(
    value
    & opt float 4.0
    & info [ "wal-compact-ratio" ] ~docv:"K"
        ~doc:
          "Rewrite the snapshot and rotate the log once log bytes exceed $(docv) x \
           snapshot bytes.")

(* The durability flags [serve] and [daemon] share: validated once, with
   one set of error lines, into the log policy both hand to Serve.Durable. *)
let durability_policy ~resume ~wal_dir ~wal_fsync_every ~wal_compact_ratio =
  let fail msg =
    Printf.eprintf "error: %s\n" msg;
    exit 1
  in
  if resume && wal_dir = None then fail "--resume requires --wal-dir";
  if wal_fsync_every < 0 then fail "--wal-fsync-every must be >= 0";
  if wal_compact_ratio <= 0. then fail "--wal-compact-ratio must be > 0";
  { Serve.Durable.fsync_every = wal_fsync_every; compact_ratio = wal_compact_ratio }

let serve_cmd =
  let run seed tokens queries_file chains shards samples thin top ckpt_retries resume
      wal_dir wal_fsync_every wal_compact_ratio metrics_out trace_out =
    with_obs "serve" metrics_out trace_out @@ fun () ->
    (* PDB_FAILPOINT="pool.sample@K" injects a crash at sample K — the
       supervision path exercised end-to-end. *)
    (try Checkpoint.Failpoint.arm_from_env ()
     with Invalid_argument msg ->
       Printf.eprintf "error: %s\n" msg;
       exit 1);
    let policy = durability_policy ~resume ~wal_dir ~wal_fsync_every ~wal_compact_ratio in
    let sqls = read_query_file queries_file in
    if sqls = [] then begin
      Printf.eprintf "error: %s contains no queries\n" queries_file;
      exit 1
    end;
    let queries =
      List.map
        (fun sql ->
          try (sql, Relational.Sql.parse sql)
          with Relational.Sql.Parse_error msg ->
            Printf.eprintf "error: cannot parse %S: %s\n" sql msg;
            exit 1)
        sqls
    in
    if shards < 1 then begin
      Printf.eprintf "error: --shards must be >= 1\n";
      exit 1
    end;
    if shards > 1 && (chains > 1 || wal_dir <> None || resume) then begin
      Printf.eprintf
        "error: --shards does not combine with --chains > 1 or the durability flags\n";
      exit 1
    end;
    let durability =
      Option.map
        (fun dir ->
          if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
          {
            Serve.Pool.dir;
            resume;
            retries = ckpt_retries;
            backoff_s = 0.05;
            remake = (fun ~chain db -> ner_pdb_of_db ~seed ~chain db);
            policy;
          })
        wal_dir
    in
    let t0 = Obs.Timer.start () in
    let results, served_line =
      if shards > 1 then begin
        (* Scale-out path: partition the corpus by string cluster, one
           chain per slice, union the answers (DESIGN.md scale-out
           section). Burn-in happens inside [make], sized to each
           shard's own token count. *)
        let docs = Ie.Corpus.generate_tokens ~seed ~n_tokens:tokens in
        let plan = Ie.Sharding.plan ~shards docs in
        let subs = Ie.Sharding.split plan docs in
        Printf.printf "sharded %d docs into %d slices (%d string clusters, %d cut strings)\n"
          (List.length docs) plan.Ie.Sharding.n_shards plan.Ie.Sharding.clusters
          plan.Ie.Sharding.cut_strings;
        let make ~shard =
          let db = Relational.Database.create () in
          ignore (Ie.Token_table.load db subs.(shard) : Relational.Table.t);
          let pdb = ner_pdb_of_db ~seed ~chain:shard db in
          Core.Pdb.walk pdb ~steps:(4 * plan.Ie.Sharding.weights.(shard));
          pdb
        in
        ( Serve.Shard.evaluate ~shards:plan.Ie.Sharding.n_shards ~make ~queries ~thin
            ~samples (),
          Printf.sprintf "%d corpus shard(s) (%d worlds/query)" plan.Ie.Sharding.n_shards
            (samples + 1) )
      end
      else
        ( Serve.Pool.evaluate ~burn_in:(4 * tokens) ?durability ~chains
            ~make:(fun ~chain -> make_ner_pdb ~seed ~tokens ~chain)
            ~queries ~thin ~samples (),
          Printf.sprintf "%d shared chain(s) (%d worlds/query)" chains
            (chains * (samples + 1)) )
    in
    Printf.printf "served %d queries off %s in %.2fs\n" (List.length results) served_line
      (Obs.Timer.seconds (Obs.Timer.elapsed_ns t0));
    List.iter
      (fun (name, m) ->
        let answers = Core.Marginals.estimates m in
        Printf.printf "\n%s\n%d answer tuples; top %d:\n" name (List.length answers) top;
        print_top ~top answers)
      results
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Answer a file of SQL queries concurrently, all maintained off the same MCMC \
          delta stream.")
    Term.(
      const run $ seed_arg $ tokens_arg $ queries_file_arg $ chains_arg $ shards_arg
      $ samples_arg $ thin_arg $ top_arg $ checkpoint_retries_arg $ resume_arg $ wal_dir_arg
      $ wal_fsync_every_arg $ wal_compact_ratio_arg $ metrics_out_arg $ trace_out_arg)

(* ------------------------------------------------------------------ *)

let mentions_arg =
  Arg.(
    value
    & opt (list ~sep:',' string)
        [ "John Smith"; "J. Smith"; "J. Simms"; "IBM"; "IBM corp."; "Bob Jones" ]
    & info [ "mentions" ] ~docv:"M1,M2,..." ~doc:"Comma-separated mention strings.")

let coref_cmd =
  let run seed mentions samples metrics_out trace_out =
    with_obs "coref" metrics_out trace_out @@ fun () ->
    let strings = Array.of_list mentions in
    let db = Relational.Database.create () in
    let world, coref = Ie.Coref.load db ~strings in
    let rng = Mcmc.Rng.create (seed + 3) in
    let proposal =
      Mcmc.Proposal.mix
        [| (0.7, Ie.Coref.move_proposal coref); (0.3, Ie.Coref.split_merge_proposal coref) |]
    in
    let pdb = Core.Pdb.create ~world ~proposal ~rng in
    let n = Array.length strings in
    let hits = Array.make_matrix n n 0 in
    for _ = 1 to samples do
      Core.Pdb.walk pdb ~steps:20;
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          if Ie.Coref.cluster_of coref i = Ie.Coref.cluster_of coref j then
            hits.(i).(j) <- hits.(i).(j) + 1
        done
      done
    done;
    Printf.printf "pairwise co-reference probabilities (%d samples):\n" samples;
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        Printf.printf "  %-20s ~ %-20s %.3f\n" strings.(i) strings.(j)
          (float_of_int hits.(i).(j) /. float_of_int samples)
      done
    done
  in
  Cmd.v
    (Cmd.info "coref" ~doc:"Entity resolution over mention strings.")
    Term.(const run $ seed_arg $ mentions_arg $ samples_arg $ metrics_out_arg $ trace_out_arg)

(* ------------------------------------------------------------------ *)

(* Long-lived daemon + its line client (docs/SERVER.md). The [attach]
   client doubles as the test/bench driver: tools/daemon_smoke.sh runs a
   fleet of them against a daemon, SIGKILLs the daemon mid-stream, and
   compares the frozen marginals each client prints against an
   uninterrupted twin. *)

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path of the daemon.")

let max_clients_arg =
  Arg.(
    value & opt int 64
    & info [ "max-clients" ] ~docv:"N"
        ~doc:"Admission cap on concurrent connections (excess get a typed error).")

let max_plans_arg =
  Arg.(
    value & opt int 256
    & info [ "max-plans" ] ~docv:"N"
        ~doc:"Admission cap on registered standing queries (rejected, never queued).")

let max_bootstraps_arg =
  Arg.(
    value & opt int 8
    & info [ "max-bootstraps" ] ~docv:"N"
        ~doc:"Full bootstrap evaluations admitted per serving tick.")

let slow_client_bytes_arg =
  Arg.(
    value
    & opt int (64 * 1024)
    & info [ "slow-client-bytes" ] ~docv:"B"
        ~doc:
          "Unflushed-output threshold beyond which a client's stream updates coalesce \
           drop-oldest instead of queueing unboundedly.")

let max_samples_arg =
  Arg.(
    value & opt int 0
    & info [ "max-samples" ] ~docv:"S"
        ~doc:"Stop sampling after $(docv) worlds but keep serving (0 = unbounded).")

let await_queries_arg =
  Arg.(
    value & opt int 0
    & info [ "await-queries" ] ~docv:"N"
        ~doc:
          "Hold sampling until $(docv) queries are registered, so a fleet of clients \
           all attach at sample 0 (the determinism knob the kill/resume smoke relies \
           on).")

(* The daemon's chain constructor, fresh- and restore-side. The batched
   proposal keeps a cursor (current document batch, proposals remaining)
   that no snapshot captures; aligning [proposals_per_batch] with [thin]
   makes batch reloads land exactly on sample boundaries — where
   snapshots are taken and WAL replay resumes — so a resumed daemon is
   sample-path identical to an uninterrupted one (the property
   tools/daemon_smoke.sh asserts bit-for-bit). Same trick as the WAL
   bench's chain. *)
let daemon_pdb_of_db ~seed ~thin db =
  let world = Core.World.create db in
  let crf = Ie.Crf.create ~params:(Ie.Crf.default_params ()) world in
  let rng = Mcmc.Rng.create (seed + 2) in
  let proposal = Ie.Proposals.batched_flip ~proposals_per_batch:thin ~rng crf in
  Core.Pdb.create ~world ~proposal ~rng

let make_daemon_pdb ~seed ~tokens ~thin =
  let docs = Ie.Corpus.generate_tokens ~seed ~n_tokens:tokens in
  let db = Relational.Database.create () in
  ignore (Ie.Token_table.load db docs : Relational.Table.t);
  let pdb = daemon_pdb_of_db ~seed ~thin db in
  (* Round burn-in up to a whole number of batches so the post-burn-in
     snapshot point is also a batch boundary. *)
  let burn = (((4 * tokens) + thin - 1) / thin) * thin in
  Core.Pdb.walk pdb ~steps:burn;
  pdb

let daemon_cmd =
  let run seed tokens socket thin max_samples await_queries max_clients max_plans
      max_bootstraps slow_bytes wal_dir wal_fsync_every wal_compact_ratio resume
      metrics_out trace_out =
    with_obs "daemon" metrics_out trace_out @@ fun () ->
    let policy = durability_policy ~resume ~wal_dir ~wal_fsync_every ~wal_compact_ratio in
    let cfg =
      {
        (Serve.Daemon.default_config ~socket_path:socket) with
        Serve.Daemon.max_clients;
        max_plans;
        max_bootstraps_per_tick = max_bootstraps;
        thin;
        max_samples;
        await_queries;
        slow_client_bytes = slow_bytes;
      }
    in
    let daemon =
      match wal_dir with
      | None ->
        Serve.Daemon.of_registry cfg
          (Serve.Registry.create (make_daemon_pdb ~seed ~tokens ~thin))
      | Some dir ->
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        let snap_path = Filename.concat dir "daemon.ckpt" in
        let wal_path = Filename.concat dir "daemon.wal" in
        let durable =
          if resume then
            Serve.Durable.resume ~snap_path ~wal_path policy
              ~make_pdb:(daemon_pdb_of_db ~seed ~thin)
          else
            Serve.Durable.start ~snap_path ~wal_path policy
              (Serve.Registry.create (make_daemon_pdb ~seed ~tokens ~thin))
        in
        Serve.Daemon.of_durable cfg durable
    in
    Printf.printf "daemon listening on %s\n%!" socket;
    Serve.Daemon.run daemon;
    Printf.printf "daemon: clean shutdown after %d samples (%d rejected, %d coalesced, %d thinned)\n"
      (Serve.Daemon.samples daemon) (Serve.Daemon.rejected daemon)
      (Serve.Daemon.coalesced daemon) (Serve.Daemon.thinned daemon)
  in
  Cmd.v
    (Cmd.info "daemon"
       ~doc:
         "Run the long-lived query daemon: one shared MCMC chain served over a \
          Unix-domain socket (protocol: docs/SERVER.md).")
    Term.(
      const run $ seed_arg $ tokens_arg $ socket_arg $ thin_arg $ max_samples_arg
      $ await_queries_arg $ max_clients_arg $ max_plans_arg $ max_bootstraps_arg
      $ slow_client_bytes_arg $ wal_dir_arg $ wal_fsync_every_arg $ wal_compact_ratio_arg
      $ resume_arg $ metrics_out_arg $ trace_out_arg)

(* ---------- attach: the line client ---------- *)

let connect_with_retry ~socket ~retries =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rec go tries =
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) when tries > 0
      ->
      Unix.sleepf 0.1;
      go (tries - 1)
  in
  go retries

let send_request oc req =
  output_string oc (Serve.Protocol.encode_request req);
  output_char oc '\n';
  flush oc

let read_response ic =
  match input_line ic with
  | exception End_of_file ->
    Printf.eprintf "error: daemon closed the connection\n";
    exit 2
  | line -> (
    match Serve.Protocol.decode_response line with
    | Result.Ok resp -> resp
    | Result.Error msg ->
      Printf.eprintf "error: undecodable frame %S: %s\n" line msg;
      exit 2)

let exit_on_error resp =
  match resp with
  | Serve.Protocol.Error { code; msg } ->
    Printf.eprintf "error: daemon refused (%s): %s\n"
      (Serve.Protocol.error_code_to_string code)
      msg;
    exit 3
  | _ -> resp

(* Frozen results in a twin-comparable form: the query is identified by
   name (ids may differ across runs when registrations race), floats are
   %.17g (round-trip exact). *)
let print_frozen ~name ~samples estimates =
  Printf.printf "query %s samples=%d tuples=%d\n" name samples (List.length estimates);
  List.iter (fun (row, p) -> Printf.printf "  %s %.17g\n" row p) estimates

let attach_cmd =
  let run socket sql name stream updates wait_samples sleep_per_update detach stats_only
      list_only shutdown_only =
    let fd = connect_with_retry ~socket ~retries:100 in
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    if shutdown_only then begin
      send_request oc Serve.Protocol.Shutdown;
      let rec await () =
        match exit_on_error (read_response ic) with
        | Serve.Protocol.Bye -> print_endline "daemon: bye"
        | _ -> await ()
      in
      await ()
    end
    else if stats_only then begin
      send_request oc Serve.Protocol.Stats;
      let rec await () =
        match exit_on_error (read_response ic) with
        | Serve.Protocol.Stats_reply
            { clients; queries; samples; max_samples; rejected; coalesced; thinned } ->
          Printf.printf
            "stats clients=%d queries=%d samples=%d max_samples=%d rejected=%d \
             coalesced=%d thinned=%d\n"
            clients queries samples max_samples rejected coalesced thinned
        | _ -> await ()
      in
      await ()
    end
    else if list_only then begin
      send_request oc Serve.Protocol.List_queries;
      let rec await () =
        match exit_on_error (read_response ic) with
        | Serve.Protocol.Queries_reply qs ->
          List.iter (fun (id, n) -> Printf.printf "query %d %s\n" id n) qs
        | _ -> await ()
      in
      await ()
    end
    else begin
      (* Register (or find by name after a daemon resume), then
         optionally stream, wait, and detach. *)
      send_request oc (Serve.Protocol.Register { sql; name });
      let query, _qname =
        let rec await () =
          match exit_on_error (read_response ic) with
          | Serve.Protocol.Registered { query; name; samples } ->
            Printf.printf "registered %s samples=%d\n%!" name samples;
            (query, name)
          | _ -> await ()
        in
        await ()
      in
      if updates > 0 then begin
        send_request oc (Serve.Protocol.Stream { query; every = stream });
        let rec await_ack () =
          match exit_on_error (read_response ic) with
          | Serve.Protocol.Streaming _ -> ()
          | _ -> await_ack ()
        in
        await_ack ();
        let seen = ref 0 in
        while !seen < updates do
          (match exit_on_error (read_response ic) with
          | Serve.Protocol.Update { sample; estimates; _ } ->
            incr seen;
            Printf.printf "update sample=%d tuples=%d\n%!" sample (List.length estimates);
            if sleep_per_update > 0. then Unix.sleepf sleep_per_update
          | _ -> ())
        done
      end;
      if wait_samples > 0 then begin
        (* Poll until the chain reaches the target sample count; stream
           updates still in flight are drained and ignored. *)
        let rec poll () =
          send_request oc Serve.Protocol.Stats;
          let rec await () =
            match exit_on_error (read_response ic) with
            | Serve.Protocol.Stats_reply { samples; _ } -> samples
            | _ -> await ()
          in
          let samples = await () in
          if samples < wait_samples then begin
            Unix.sleepf 0.05;
            poll ()
          end
        in
        poll ()
      end;
      if detach then begin
        send_request oc (Serve.Protocol.Detach { query });
        let rec await () =
          match exit_on_error (read_response ic) with
          | Serve.Protocol.Detached { name; samples; estimates; _ } ->
            print_frozen ~name ~samples estimates
          | _ -> await ()
        in
        await ()
      end
      else begin
        send_request oc (Serve.Protocol.Marginals { query });
        let rec await () =
          match exit_on_error (read_response ic) with
          | Serve.Protocol.Marginals_reply { name; samples; estimates; _ } ->
            print_frozen ~name ~samples estimates
          | _ -> await ()
        in
        await ()
      end
    end;
    (try Unix.close fd with Unix.Unix_error _ -> ())
  in
  let name_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "name" ] ~docv:"NAME"
          ~doc:
            "Query name. Registering an existing name attaches to the standing query \
             instead of duplicating it — how clients find their queries again after a \
             daemon resume.")
  in
  let stream_arg =
    Arg.(
      value & opt int 0
      & info [ "stream" ] ~docv:"K"
          ~doc:
            "Update cadence: every $(docv) samples, or 0 to let the daemon's \
             convergence-aware scheduler choose.")
  in
  let updates_arg =
    Arg.(
      value & opt int 0
      & info [ "updates" ] ~docv:"N" ~doc:"Stream until $(docv) updates have arrived.")
  in
  let wait_samples_arg =
    Arg.(
      value & opt int 0
      & info [ "wait-samples" ] ~docv:"S"
          ~doc:"After streaming, poll until the chain has sampled $(docv) worlds.")
  in
  let sleep_per_update_arg =
    Arg.(
      value & opt float 0.
      & info [ "sleep-per-update" ] ~docv:"SEC"
          ~doc:
            "Artificial read delay per update — makes this client slow so the daemon's \
             coalescing backpressure is observable.")
  in
  let detach_arg =
    Arg.(
      value & flag
      & info [ "detach" ]
          ~doc:"Unregister the query at the end and print its frozen marginals.")
  in
  let stats_arg =
    Arg.(value & flag & info [ "stats" ] ~doc:"Print daemon counters and exit.")
  in
  let list_arg =
    Arg.(value & flag & info [ "list" ] ~doc:"List registered queries and exit.")
  in
  let shutdown_arg =
    Arg.(
      value & flag
      & info [ "shutdown" ] ~doc:"Ask the daemon to checkpoint and exit, then exit.")
  in
  Cmd.v
    (Cmd.info "attach"
       ~doc:
         "Attach to a running daemon: register a standing SQL query, stream marginal \
          updates, detach with frozen results.")
    Term.(
      const run $ socket_arg $ sql_arg $ name_arg $ stream_arg $ updates_arg
      $ wait_samples_arg $ sleep_per_update_arg $ detach_arg $ stats_arg $ list_arg
      $ shutdown_arg)

let () =
  let info =
    Cmd.info "pdb_cli" ~version:"1.0"
      ~doc:"Scalable probabilistic databases with factor graphs and MCMC."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ corpus_cmd; train_cmd; query_cmd; serve_cmd; coref_cmd; daemon_cmd; attach_cmd ]))
