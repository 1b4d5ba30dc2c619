(* shard-1m — one chain per corpus slice under [Serve.Shard.evaluate].

   1M tokens of the skip-chain CRF, split 2 ways by [Ie.Sharding];
   each shard's chain answers Query 1 and Query 4 for [80 x seconds]
   samples at thin 5000, and the per-shard answers are unioned by
   [Core.Marginals.merge_shards]. The working set is hundreds of MB, far
   beyond any cache, and this is the only workload that runs
   [Mcmc.Parallel]. The bench builds each shard's chain itself, so a
   probe on its proposal stamps the sample boundaries and the
   registration time inside [Serve.Shard.evaluate]. *)

open Measure

let query1 = "SELECT STRING FROM TOKEN WHERE LABEL='B-PER'"

let query4 =
  "SELECT T2.STRING FROM TOKEN T1, TOKEN T2 WHERE T1.STRING='Boston' AND T1.LABEL='B-ORG' AND \
   T1.DOC_ID=T2.DOC_ID AND T2.LABEL='B-PER'"

type sizes = { n_tokens : int; shards : int; thin : int; samples : int }

let sizes (cfg : Workload.config) =
  if cfg.smoke then { n_tokens = 20_000; shards = 2; thin = 200; samples = 10 }
  else { n_tokens = 1_000_000; shards = 2; thin = 5_000; samples = 80 * cfg.seconds }

type instance = { chains : Workload.chain array; cut_strings : int; phases : Workload.phases }

let build sz ~traced ~corpus_seed ~chain_seeds () =
  let (plan, slices), corpus =
    timed (fun () ->
        let docs = Ie.Corpus.generate_tokens ~seed:corpus_seed ~n_tokens:sz.n_tokens in
        let plan = Ie.Sharding.plan ~shards:sz.shards docs in
        (plan, Ie.Sharding.split plan docs))
  in
  let chains =
    Array.mapi
      (fun i docs ->
        Workload.chain_of_docs ~thin:sz.thin ~burn_in:0 ~traced ~chain_seed:chain_seeds.(i) docs)
      slices
  in
  let total f = Array.fold_left (fun acc (c : Workload.chain) -> acc + f c.phases) 0 chains in
  { chains; cut_strings = plan.Ie.Sharding.cut_strings;
    phases =
      { Workload.corpus;
        load = total (fun p -> p.load);
        crf = total (fun p -> p.crf);
        chain = total (fun p -> p.chain) } }

let run (cfg : Workload.config) =
  let sz = sizes cfg in
  let seeds = Workload.seeds cfg (1 + sz.shards) in
  let build =
    build sz ~traced:cfg.traced ~corpus_seed:seeds.(0) ~chain_seeds:(Array.sub seeds 1 sz.shards)
  in
  let setups = Workload.setups () and phases i = i.phases in
  Workload.extra_setups setups ~rounds:1 ~phases ~discard:ignore build;
  let inst = Workload.setup setups ~phases build in
  let queries = [ ("q1", Relational.Sql.parse query1); ("q4", Relational.Sql.parse query4) ] in
  let made = Array.make sz.shards 0 in
  Workload.start_tracing cfg;
  let merged, timed_ns =
    Workload.timed_round (fun () ->
        span "timed" (fun () ->
            span "shard.evaluate" (fun () ->
                Serve.Shard.evaluate ~shards:sz.shards
                  ~make:(fun ~shard ->
                    made.(shard) <- now ();
                    inst.chains.(shard).pdb)
                  ~queries ~thin:sz.thin ~samples:sz.samples ())))
  in
  let peak = peak_heap_mb () in
  (* Per shard: registration is [make] to the first proposal; a sample
     runs from one sample's first proposal to the next one's (walk plus
     fan-out), so the last sample of each shard has no interval. *)
  let latencies = vec () and registers = vec () in
  Array.iteri
    (fun i (c : Workload.chain) ->
      let starts = c.probe.starts in
      if starts.len > 0 then begin
        push registers (starts.data.(0) - made.(i));
        add_span ~under:"shard.evaluate" "registry.register" ~start:made.(i) ~stop:starts.data.(0)
      end;
      for k = 1 to starts.len - 1 do
        push latencies (starts.data.(k) - starts.data.(k - 1));
        add_span ~under:"shard.evaluate" "sample" ~start:starts.data.(k - 1) ~stop:starts.data.(k)
      done;
      close_walks c.probe)
    inst.chains;
  let total_samples = sz.shards * sz.samples in
  let layers =
    if not cfg.traced then []
    else begin
      let n = float_of_int total_samples in
      let obs name = float_of_int (counter name) in
      let jobs, job_sum, job_max = hist "parallel.job_ns" in
      Workload.chain_layers
        (Array.to_list (Array.map (fun (c : Workload.chain) -> c.probe) inst.chains))
        ~samples:total_samples
      @ [ ("core.world.delta_rows", ratio !Workload.delta_rows !Workload.delta_events);
          ("relational.view.probe_rows", obs "view.join.probe_rows" /. n);
          ("core.marginals.support_rows",
           float_of_int
             (List.fold_left
                (fun acc (_, m) -> acc + List.length (Core.Marginals.estimates m))
                0 merged));
          ("serve.registry.fanout_ms", to_ms (counter "serve.fanout_ns") /. n);
          ("serve.registry.bootstrap_evals", obs "serve.bootstrap_evals");
          ("mcmc.parallel.job_s_max", to_s job_max);
          ("mcmc.parallel.imbalance", float_of_int job_max /. Float.max 1. (ratio job_sum jobs));
          ("serve.shard.merge_ms", to_ms (counter "shard.merge_ns")) ]
      @ Workload.register_metrics registers
      @ Workload.gc_metrics ~samples:total_samples
    end
  in
  Workload.stop_tracing ();
  let bad = List.filter (fun (_, m) -> Core.Marginals.samples m <> sz.samples + 1) merged in
  let setup_s, setup_layers = Workload.setup_metrics setups in
  { Workload.e2e =
      [ setup_s;
        ("time_to_target_s", to_s timed_ns);
        ("proposals_per_s", float_of_int (total_samples * sz.thin) /. to_s timed_ns) ]
      @ Workload.sample_metrics latencies
      @ [ ("peak_heap_mb", peak) ];
    layers =
      setup_layers
      @ layers
      @ [ ("ie.sharding.cut_strings", float_of_int inst.cut_strings);
          ("bench.samples", float_of_int total_samples) ];
    attempted = List.length queries;
    failed = List.length bad + (List.length queries - List.length merged);
    digest = digest (List.map snd merged);
    timed_ns;
    params =
      [ ("n_tokens", string_of_int sz.n_tokens); ("shards", string_of_int sz.shards);
        ("thin", string_of_int sz.thin); ("samples_per_shard", string_of_int sz.samples);
        ("queries", "Query 1, Query 4"); ("cut_strings", string_of_int inst.cut_strings) ] }
