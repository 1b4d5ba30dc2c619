(* Shared machinery for the experiment harness: instance construction,
   instrumented evaluation loops (walk time vs query-evaluation time), and
   ground-truth estimation.

   Timing goes through lib/obs: the per-call walk/query spans printed by the
   experiments are measured with Obs.Timer. Query evaluation steps through
   Core.Evaluator.start/observe, so when metrics collection is on
   (bench/main.exe --metrics-out) the "eval.*" counters cover runs driven
   by this harness's stopping rule too. *)

open Core

type instance = {
  pdb : Pdb.t;
  crf : Ie.Crf.t;
  n_tokens : int;
}

(* Build a fresh NER probabilistic database over a seeded synthetic corpus.
   Identical (seed, n_tokens) always give the identical initial world; the
   chain seed varies independently. *)
let make_instance ?(skip_edges = true) ?params ~corpus_seed ~chain_seed ~n_tokens () =
  let docs = Ie.Corpus.generate_tokens ~seed:corpus_seed ~n_tokens in
  let db = Relational.Database.create () in
  ignore (Ie.Token_table.load db docs : Relational.Table.t);
  let world = World.create db in
  let params = match params with Some p -> p | None -> Ie.Crf.default_params () in
  let crf = Ie.Crf.create ~skip_edges ~params world in
  let rng = Mcmc.Rng.create chain_seed in
  let proposal = Ie.Proposals.batched_flip ~rng crf in
  let pdb = Pdb.create ~world ~proposal ~rng in
  { pdb; crf; n_tokens = Ie.Crf.n_tokens crf }

(* One query's marginals pooled over [chains] parallel chains (§5.4): a
   single-query Serve.Pool run, which maintains the query as a
   materialized view exactly like Evaluator's Materialized strategy. *)
let pooled ?burn_in ~chains ~make ~query ~thin ~samples () =
  match Serve.Pool.evaluate ?burn_in ~chains ~make ~queries:[ ("q", query) ] ~thin ~samples () with
  | [ (_, m) ] -> m
  | _ -> assert false

(* Ground truth for a query: several long materialized runs on identical
   instances, pooled — the paper estimates truth by averaging parallel
   chains (§5.4). *)
let ground_truth ?(chains = 4) ~corpus_seed ~n_tokens ~query ~thin ~samples () =
  let m =
    pooled ~burn_in:(30 * thin) ~chains
      ~make:(fun ~chain ->
        (make_instance ~corpus_seed ~chain_seed:(987_654 + (13 * chain)) ~n_tokens ()).pdb)
      ~query ~thin ~samples ()
  in
  Marginals.estimates m

type timed_run = {
  total_s : float;  (** wall-clock of the whole evaluation *)
  query_s : float;  (** time spent obtaining answer sets (the DBMS-side cost) *)
  walk_s : float;  (** time spent inside Metropolis–Hastings *)
  samples_used : int;
  initial_error : float;
  final_error : float;
}

(* Instrumented evaluation: Evaluator's sample step, separately accounting
   walk and query time, and stopping once the squared error against [truth]
   halves (or [max_samples] is reached). *)
let m_walk_ns = Obs.Metrics.counter "harness.walk_ns"

let run_until_half_error strategy inst ~query ~thin ~truth ~max_samples =
  let walk_ns = ref 0 and query_ns = ref 0 in
  let timed acc f =
    let t0 = Obs.Timer.start () in
    let x = f () in
    acc := !acc + Obs.Timer.elapsed_ns t0;
    x
  in
  let started = Obs.Timer.start () in
  let run = timed query_ns (fun () -> Evaluator.start strategy inst.pdb ~query) in
  let marginals = Evaluator.marginals run in
  let initial_error = Marginals.squared_error_to ~reference:truth marginals in
  let threshold = initial_error /. 2. in
  let err = ref initial_error in
  let samples = ref 0 in
  while !err > threshold && !samples < max_samples do
    timed walk_ns (fun () ->
        Obs.Timer.record m_walk_ns (fun () -> Pdb.walk inst.pdb ~steps:thin));
    timed query_ns (fun () -> Evaluator.observe run);
    incr samples;
    err := Marginals.squared_error_to ~reference:truth marginals
  done;
  { total_s = Obs.Timer.seconds (Obs.Timer.elapsed_ns started);
    query_s = Obs.Timer.seconds !query_ns;
    walk_s = Obs.Timer.seconds !walk_ns;
    samples_used = !samples;
    initial_error;
    final_error = !err }

(* Loss-versus-time series: evaluate for a fixed number of samples, recording
   (elapsed, normalized loss) at every sample. *)
let loss_series strategy inst ~query ~thin ~samples ~truth =
  let series = ref [] in
  let _ =
    Evaluator.evaluate
      ~on_sample:(fun p ->
        let err = Marginals.squared_error_to ~reference:truth p.Evaluator.marginals in
        series := (p.Evaluator.elapsed, err) :: !series)
      strategy inst.pdb ~query ~thin ~samples
  in
  let l = List.rev !series in
  let max_err = List.fold_left (fun acc (_, e) -> max acc e) 1e-12 l in
  List.map (fun (t, e) -> (t, e /. max_err)) l

let print_header title =
  Printf.printf "\n=== %s ===\n%!" title

let print_series ~label ~stride series =
  List.iteri
    (fun i (t, e) ->
      if i mod stride = 0 then Printf.printf "  %-14s t=%8.3fs  loss=%8.5f\n" label t e)
    series;
  match List.rev series with
  | (t, e) :: _ -> Printf.printf "  %-14s t=%8.3fs  loss=%8.5f (final)\n%!" label t e
  | [] -> ()
