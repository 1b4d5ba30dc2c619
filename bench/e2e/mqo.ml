(* mqo-64 — 64 overlapping join queries on one [Serve.Registry] chain.

   The 8 self-join cores x 8 tops of BENCH_mqo over 10k tokens of the
   skip-chain CRF. The chain is burned in for 10n steps during set-up:
   per-sample cost grows with answer-set and support size from the all-O
   start, so a run from a burned-in world measures the steady state
   rather than the transient. A round registers the 64 queries and steps
   the registry [100 x seconds] samples at thin 20; shared view
   maintenance and marginal folds are most of each sample.

   Join answer sizes, and so the cost of a sample, depend on how
   entities fall into the 10k tokens' ~80 documents, which differs a lot
   between seeds. A run therefore makes 4 rounds, each on its own corpus,
   one after another, and reports the median round.

   The traced pass hoists the walk out of [Registry.step]
   ([Pdb.walk ~steps:thin], then [Registry.step ~thin:0]) so it can be
   timed apart; the sample path is the same. *)

open Measure

let cores =
  [| ("B-PER", "B-ORG"); ("B-ORG", "B-PER"); ("B-PER", "B-LOC"); ("B-LOC", "B-PER");
     ("B-ORG", "B-LOC"); ("B-LOC", "B-ORG"); ("B-PER", "B-MISC"); ("B-MISC", "B-PER") |]

(* Tops vary only above the join, so the optimizer-normalized core stays
   structurally equal across the 8 queries that share a label pair. *)
let tops =
  [| (fun c -> "SELECT T1.STRING " ^ c);
     (fun c -> "SELECT T2.STRING " ^ c);
     (fun c -> "SELECT T1.STRING, T2.STRING " ^ c);
     (fun c -> "SELECT DISTINCT T1.STRING " ^ c);
     (fun c -> "SELECT DISTINCT T2.STRING " ^ c);
     (fun c -> "SELECT COUNT(*) " ^ c);
     (fun c -> "SELECT T1.STRING, COUNT(*) AS N " ^ c ^ " GROUP BY T1.STRING");
     (fun c -> "SELECT T2.STRING, COUNT(*) AS N " ^ c ^ " GROUP BY T2.STRING") |]

let query i =
  let l1, l2 = cores.(i mod 8) in
  tops.(i / 8 mod 8)
    (Printf.sprintf
       "FROM TOKEN T1, TOKEN T2 WHERE T1.DOC_ID=T2.DOC_ID AND T1.LABEL='%s' AND T2.LABEL='%s'" l1
       l2)

type sizes = {
  n_tokens : int;
  thin : int;
  burn_in : int;
  queries : int;
  rounds : int;
  samples : int;  (* per round *)
}

let sizes (cfg : Workload.config) =
  let n_tokens, queries, rounds, samples =
    if cfg.smoke then (1_500, 16, 2, 20) else (10_000, 64, 4, 100 * cfg.seconds)
  in
  { n_tokens; thin = 20; burn_in = 10 * n_tokens; queries; rounds; samples }

type instance = { c : Workload.chain; reg : Serve.Registry.t }

let build sz ~traced ~corpus_seed ~chain_seed () =
  let c =
    Workload.chain ~n_tokens:sz.n_tokens ~thin:sz.thin ~burn_in:sz.burn_in ~traced ~corpus_seed
      ~chain_seed ()
  in
  { c; reg = Serve.Registry.create c.pdb }

(* Register every query, then step the registry; each query's answers. *)
let round sz inst ~traced ~latencies ~registers =
  let reg = inst.reg in
  let pdb = Serve.Registry.pdb reg in
  let ids =
    List.init sz.queries (fun i ->
        let id, ns =
          timed (fun () ->
              span "registry.register" (fun () ->
                  Serve.Registry.register_sql ~name:(Printf.sprintf "q%d" i) reg (query i)))
        in
        push registers ns;
        id)
  in
  for _ = 1 to sz.samples do
    let (), ns =
      timed (fun () ->
          if traced then begin
            span "pdb.walk" (fun () -> Core.Pdb.walk pdb ~steps:sz.thin);
            span "registry.step" (fun () -> Serve.Registry.step reg ~thin:0)
          end
          else Serve.Registry.step reg ~thin:sz.thin)
    in
    push latencies ns
  done;
  List.map (Serve.Registry.marginals reg) ids

let run (cfg : Workload.config) =
  let sz = sizes cfg in
  let seeds = Workload.seeds cfg (2 * sz.rounds) in
  let build r =
    build sz ~traced:cfg.traced ~corpus_seed:seeds.(2 * r) ~chain_seed:seeds.((2 * r) + 1)
  in
  let setups = Workload.setups () and phases i = i.c.phases in
  Workload.extra_setups setups ~rounds:sz.rounds ~phases ~discard:ignore (build 0);
  let registers = vec () in
  let probes = ref [] and shared = ref 0 and cached = ref 0 in
  Workload.start_tracing cfg;
  let rounds =
    List.init sz.rounds (fun r ->
        let inst = Workload.setup setups ~phases (build r) in
        let latencies = vec () in
        let marginals, ns =
          Workload.timed_round (fun () ->
              span "timed" (fun () -> round sz inst ~traced:cfg.traced ~latencies ~registers))
        in
        probes := inst.c.probe :: !probes;
        shared := !shared + Serve.Registry.shared_nodes inst.reg;
        cached := !cached + Serve.Registry.cached_nodes inst.reg;
        (marginals, ns, Workload.sample_metrics latencies))
  in
  let peak = peak_heap_mb () in
  let marginals = List.concat_map (fun (m, _, _) -> m) rounds in
  let times = List.map (fun (_, ns, _) -> ns) rounds in
  let timed_ns = List.fold_left ( + ) 0 times in
  let median_round name =
    (name, median (Array.of_list (List.map (fun (_, _, l) -> List.assoc name l) rounds)))
  in
  let samples = sz.rounds * sz.samples in
  let bad = List.filter (fun m -> Core.Marginals.samples m <> sz.samples + 1) marginals in
  let layers =
    if not cfg.traced then []
    else begin
      let n = float_of_int samples in
      let obs name = float_of_int (counter name) in
      let fanout = counter "serve.fanout_ns" in
      Workload.chain_layers !probes ~samples
      @ [ ("core.world.delta_rows", ratio !Workload.delta_rows !Workload.delta_events);
          ("relational.view.probe_rows", obs "view.join.probe_rows" /. n);
          ("core.marginals.support_rows",
           float_of_int
             (List.fold_left (fun acc m -> acc + List.length (Core.Marginals.estimates m)) 0
                marginals));
          ("serve.registry.fanout_ms", to_ms fanout /. n);
          ("serve.registry.step_self_us",
           float_of_int (total "registry.step" - fanout) /. 1e3 /. n);
          ("serve.registry.dedup_ratio", obs "serve.dedup_hits" /. (n *. float_of_int sz.queries));
          ("serve.registry.bootstrap_evals", obs "serve.bootstrap_evals") ]
      @ Workload.register_metrics registers
      @ Workload.gc_metrics ~samples
    end
  in
  Workload.stop_tracing ();
  let setup_s, setup_layers = Workload.setup_metrics setups in
  { Workload.e2e =
      [ setup_s;
        ("time_to_target_s", to_s (int_of_float (median_ns times)));
        ("proposals_per_s", float_of_int (samples * sz.thin) /. to_s timed_ns);
        median_round "sample_ms_p50";
        median_round "sample_ms_p99";
        ("peak_heap_mb", peak) ];
    layers = setup_layers @ layers @ [ ("bench.samples", float_of_int samples) ];
    attempted = sz.rounds * (sz.queries + sz.samples);
    failed = List.length bad;
    digest = digest marginals;
    timed_ns;
    params =
      [ ("n_tokens", string_of_int sz.n_tokens); ("thin", string_of_int sz.thin);
        ("burn_in", string_of_int sz.burn_in); ("queries", string_of_int sz.queries);
        ("rounds", string_of_int sz.rounds); ("samples_per_round", string_of_int sz.samples);
        ("shared_nodes", string_of_int !shared); ("cached_nodes", string_of_int !cached) ] }
