(* fig4a-q1 — the paper's Fig 4a measurement (§5): wall-clock time for
   Query 1's squared error, against exact truth, to fall to a fixed
   share of its initial value.

   100k tokens under the linear-chain CRF, so [Oracle] gives the exact
   answer. Each crossing starts from the paper's all-O world on a freshly
   set-up database and runs [Core.Evaluator.evaluate Materialized] at
   thin 500 until the loss reaches 1/1000 of the sample-0 loss; the loss
   is computed in the per-sample callback and its time is kept off the
   clock. One crossing's length depends on its chain (about ±12% between
   seeds), so a run makes [seconds / 5] crossings on independent chains
   and reports the median. A crossing's registration is the evaluator's
   bootstrap: [View.create] on the all-O world plus the first fold. *)

open Measure

let query1 = "SELECT STRING FROM TOKEN WHERE LABEL='B-PER'"

type sizes = { n_tokens : int; thin : int; target : float; cap : int; crossings : int }

let sizes (cfg : Workload.config) =
  if cfg.smoke then { n_tokens = 2_000; thin = 100; target = 0.1; cap = 20_000; crossings = 2 }
  else
    { n_tokens = 100_000; thin = 500; target = 1e-3; cap = 40_000;
      crossings = max 1 (cfg.seconds / 5) }

exception Reached

type crossing = {
  reached : bool;
  samples : int;  (* samples drawn after sample 0 *)
  to_target_ns : int;  (* evaluate call to the target sample, callbacks excluded *)
  initial_loss : float;
  final_loss : float;
  marginals : Core.Marginals.t option;
}

(* One evaluation to target. Sample latency is the gap between the end
   of one callback and the start of the next: walk, drain, view update,
   fold. *)
let cross sz (inst : Workload.chain) ~truth ~query ~latencies ~registers =
  let init = ref 0. and final = ref 0. and excluded = ref 0 in
  let samples = ref 0 and to_target = ref 0 and live = ref None in
  let t_call = now () in
  let last_out = ref t_call in
  let on_sample (p : Core.Evaluator.progress) =
    let t_in = now () in
    if p.sample = 0 then begin
      push registers (t_in - t_call);
      add_span "evaluator.bootstrap" ~start:t_call ~stop:t_in
    end
    else begin
      push latencies (t_in - !last_out);
      add_span "sample" ~start:!last_out ~stop:t_in
    end;
    let loss = Core.Marginals.squared_error_to ~reference:truth p.marginals in
    if p.sample = 0 then init := loss;
    final := loss;
    samples := p.sample;
    live := Some p.marginals;
    to_target := t_in - t_call - !excluded;
    let t_out = now () in
    add_span "bench.loss" ~start:t_in ~stop:t_out;
    excluded := !excluded + (t_out - t_in);
    last_out := t_out;
    if loss <= !init *. sz.target then raise Reached
  in
  let reached =
    match
      span "evaluator.evaluate" (fun () ->
          Core.Evaluator.evaluate ~on_sample Core.Evaluator.Materialized inst.pdb ~query
            ~thin:sz.thin ~samples:sz.cap)
    with
    | (_ : Core.Marginals.t) -> false
    | exception Reached -> true
  in
  close_walks inst.probe;
  { reached; samples = !samples; to_target_ns = !to_target; initial_loss = !init;
    final_loss = !final; marginals = !live }

let run (cfg : Workload.config) =
  let sz = sizes cfg in
  let seeds = Workload.seeds cfg (1 + sz.crossings) in
  let build =
    Workload.chain ~skip_edges:false ~n_tokens:sz.n_tokens ~thin:sz.thin ~burn_in:0
      ~traced:cfg.traced ~corpus_seed:seeds.(0)
  in
  let setups = Workload.setups () and phases (c : Workload.chain) = c.phases in
  Workload.extra_setups setups ~rounds:sz.crossings ~phases ~discard:ignore
    (build ~chain_seed:seeds.(1));
  let query = Relational.Sql.parse query1 in
  let latencies = vec () and registers = vec () in
  (* Exact truth, off every clock and outside the set-up count: every
     crossing runs on the same corpus. The cross-check against Chain_fb
     is one of the run's operations. *)
  let (truth, oracle_err), oracle_ns =
    let crf = (build ~chain_seed:seeds.(1) ()).crf in
    timed (fun () ->
        let docs = if cfg.smoke then Ie.Crf.n_docs crf else 20 in
        let blocked_docs = if cfg.smoke then docs else 3 in
        (Oracle.query1 crf, Oracle.check crf ~docs ~blocked_docs))
  in
  let probes = ref [] in
  Workload.start_tracing cfg;
  let results =
    List.init sz.crossings (fun i ->
        let inst = Workload.setup setups ~phases (build ~chain_seed:seeds.(1 + i)) in
        let c, ns =
          Workload.timed_round (fun () ->
              span "timed" (fun () -> cross sz inst ~truth ~query ~latencies ~registers))
        in
        probes := inst.probe :: !probes;
        (c, ns))
  in
  let peak = peak_heap_mb () in
  let timed_ns = List.fold_left (fun acc (_, ns) -> acc + ns) 0 results in
  let results = List.map fst results in
  let samples = List.fold_left (fun acc c -> acc + c.samples) 0 results in
  let layers =
    if not cfg.traced then []
    else begin
      let maintain = counter "eval.maintain_ns" in
      let walks = List.fold_left (fun acc p -> acc + sum p.walks) 0 !probes in
      let per_sample x = x /. float_of_int (max 1 samples) in
      let support m = List.length (Core.Marginals.estimates m) in
      Workload.chain_layers !probes ~samples
      @ [ ("core.world.delta_rows",
           ratio (counter "eval.delta_rows") (counter "eval.maintain_count"));
          ("relational.view.update_ns", ratio maintain (counter "eval.maintain_count"));
          ("relational.view.bootstrap_ms",
           to_ms (counter "eval.view_build_ns") /. float_of_int sz.crossings);
          ("core.evaluator.residual_ns",
           per_sample (float_of_int (total "sample" - walks - maintain)));
          ("core.marginals.support_rows",
           float_of_int
             (List.fold_left (fun acc c -> acc + Option.fold ~none:0 ~some:support c.marginals) 0
                results)) ]
      @ Workload.register_metrics registers
      @ Workload.gc_metrics ~samples
    end
  in
  Workload.stop_tracing ();
  let ok c = c.reached && c.final_loss <= c.initial_loss *. sz.target in
  let failed =
    (if oracle_err <= 1e-9 then 0 else 1) + List.length (List.filter (fun c -> not (ok c)) results)
  in
  let setup_s, setup_layers = Workload.setup_metrics setups in
  let active = List.fold_left (fun acc c -> acc + c.to_target_ns) 0 results in
  { Workload.e2e =
      [ setup_s;
        ("time_to_target_s",
         to_s (int_of_float (median_ns (List.map (fun c -> c.to_target_ns) results))));
        ("proposals_per_s", float_of_int (samples * sz.thin) /. to_s active) ]
      @ Workload.sample_metrics latencies
      @ [ ("peak_heap_mb", peak) ];
    layers =
      setup_layers
      @ layers
      @ [ ("bench.samples", float_of_int samples); ("bench.oracle_s", to_s oracle_ns) ];
    attempted = 1 + List.length results;
    failed;
    digest = digest (List.filter_map (fun c -> c.marginals) results);
    timed_ns;
    params =
      [ ("n_tokens", string_of_int sz.n_tokens); ("thin", string_of_int sz.thin);
        ("target", Printf.sprintf "%g" sz.target); ("cap", string_of_int sz.cap);
        ("crossings", string_of_int sz.crossings); ("query", query1);
        ("oracle_max_abs_err", Printf.sprintf "%.3g" oracle_err);
        ("samples_to_target",
         String.concat "," (List.map (fun c -> string_of_int c.samples) results)) ] }
