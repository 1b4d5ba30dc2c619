(* Everything BENCHMARK.json declares: the command, the workloads and the
   metrics, in print order. [pdbbench --manifest] prints the file from
   these lists and the self-test checks the committed copy against it,
   so the two cannot drift apart. *)

let command = [ "sh"; "bench/e2e/run.sh" ]
let paths = [ "bench/e2e" ]
let run_seconds = 10

let workloads =
  [ ("fig4a-q1",
     "Fig 4a on 100k tokens, linear-chain CRF: time for Query 1 to reach 1/1000 of its \
      initial error against exact truth; MH proposals dominate");
    ("mqo-64",
     "64 overlapping join queries on one registry chain over 10k tokens: shared view \
      maintenance and marginal folds dominate, MCMC is small");
    ("daemon-wal",
     "socket daemon with a WAL over 100k tokens: streaming, churned registrations, a slow \
      reader, journal appends and compactions on every sample");
    ("shard-1m",
     "1M tokens split over 2 shard chains with 2 queries: a working set far beyond the \
      caches, the parallel map and the shard merge") ]

(* name, unit, better, bound: the share of the parent's median by which
   a later change may worsen the metric *)
let end_to_end =
  [ ("setup_s", "s", "lower", 0.25);
    ("time_to_target_s", "s", "lower", 0.25);
    ("proposals_per_s", "proposals/s", "higher", 0.25);
    ("sample_ms_p50", "ms", "lower", 0.25);
    ("sample_ms_p99", "ms", "lower", 0.25);
    ("peak_heap_mb", "MB", "lower", 0.2) ]

(* name, unit, better; a layer a workload does not run reads 0 *)
let per_layer =
  [ ("setup.corpus_s", "s", "lower");
    ("setup.load_s", "s", "lower");
    ("setup.crf_s", "s", "lower");
    ("setup.burnin_s", "s", "lower");
    ("mcmc.propose_ns", "ns", "lower");
    ("mcmc.accept_rate", "ratio", "higher");
    ("core.world.commit_ns", "ns", "lower");
    ("core.world.delta_rows", "rows", "lower");
    ("core.pdb.walk_ms", "ms", "lower");
    ("relational.view.update_ns", "ns", "lower");
    ("relational.view.bootstrap_ms", "ms", "lower");
    ("relational.view.probe_rows", "rows", "lower");
    ("core.evaluator.residual_ns", "ns", "lower");
    ("core.marginals.support_rows", "rows", "lower");
    ("serve.registry.fanout_ms", "ms", "lower");
    ("serve.registry.step_self_us", "us", "lower");
    ("serve.registry.dedup_ratio", "ratio", "higher");
    ("serve.registry.bootstrap_evals", "count", "lower");
    ("register_ms_p50", "ms", "lower");
    ("register_ms_p90", "ms", "lower");
    ("wal_bytes_per_sample", "B", "lower");
    ("checkpoint.wal.append_us", "us", "lower");
    ("checkpoint.wal.fsync_ms", "ms", "lower");
    ("checkpoint.wal.fsyncs", "count", "lower");
    ("serve.durable.compactions", "count", "lower");
    ("serve.durable.compaction_ms", "ms", "lower");
    ("serve.durable.stall_ms_max", "ms", "lower");
    ("serve.daemon.tick_self_ms", "ms", "lower");
    ("serve.daemon.register_stall_ms", "ms", "lower");
    ("serve.daemon.updates_per_sample", "count", "higher");
    ("serve.daemon.coalesced_per_sample", "count", "lower");
    ("serve.daemon.thinned_per_sample", "count", "lower");
    ("serve.daemon.rejected", "count", "lower");
    ("serve.protocol.decode_us", "us", "lower");
    ("serve.protocol.update_frame_bytes", "B", "lower");
    ("mcmc.parallel.job_s_max", "s", "lower");
    ("mcmc.parallel.imbalance", "ratio", "lower");
    ("serve.shard.merge_ms", "ms", "lower");
    ("ie.sharding.cut_strings", "count", "lower");
    ("gc.minor_words_per_sample", "words", "lower");
    ("gc.major_collections", "count", "lower");
    ("trace.overhead", "ratio", "lower");
    ("trace.unattributed_share", "ratio", "lower");
    ("bench.samples", "count", "lower");
    ("bench.oracle_s", "s", "lower") ]

let unit_of name =
  match List.find_opt (fun (n, _, _, _) -> String.equal n name) end_to_end with
  | Some (_, u, _, _) -> u
  | None -> (
    match List.find_opt (fun (n, _, _) -> String.equal n name) per_layer with
    | Some (_, u, _) -> u
    | None -> invalid_arg ("Manifest.unit_of: " ^ name))

(* BENCHMARK.json, byte for byte. *)
let benchmark_json () =
  let module J = Obs.Jsonx in
  let block key items =
    Printf.sprintf "  %s: [\n    %s\n  ]" (J.str key) (String.concat ",\n    " items)
  in
  let metric n u b = [ ("name", J.str n); ("unit", J.str u); ("better", J.str b) ] in
  String.concat ",\n"
    [ "{\n  \"command\": " ^ J.arr (List.map J.str command);
      "  \"paths\": " ^ J.arr (List.map J.str paths);
      "  \"run_seconds\": " ^ J.int run_seconds;
      block "workloads"
        (List.map (fun (n, why) -> J.obj [ ("name", J.str n); ("why", J.str why) ]) workloads);
      block "end_to_end"
        (List.map
           (fun (n, u, b, bound) -> J.obj (metric n u b @ [ ("bound", Printf.sprintf "%g" bound) ]))
           end_to_end);
      block "per_layer" (List.map (fun (n, u, b) -> J.obj (metric n u b)) per_layer) ]
  ^ "\n}\n"
