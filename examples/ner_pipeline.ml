(* The paper's headline application end to end (§5.1–5.3):

   1. generate a news-like corpus and load it into the TOKEN relation;
   2. train a skip-chain CRF with SampleRank (§5.2);
   3. evaluate paper Query 1 — person-mention strings — with both the naive
      (Algorithm 3) and view-maintenance (Algorithm 1) evaluators, comparing
      their wall-clock time for identical estimates. *)

open Core

let () =
  let docs = Ie.Corpus.generate_tokens ~seed:7 ~n_tokens:8_000 in
  let db = Relational.Database.create () in
  ignore (Ie.Token_table.load db docs : Relational.Table.t);
  let world = World.create db in
  Printf.printf "corpus: %d documents, %d tokens\n" (List.length docs)
    (Ie.Corpus.total_tokens docs);

  (* Train from an empty weight vector. *)
  let params = Factorgraph.Params.create () in
  let crf = Ie.Crf.create ~params world in
  let t0 = Obs.Timer.start () in
  let report = Ie.Training.train ~steps:150_000 ~rng:(Mcmc.Rng.create 1) crf in
  Printf.printf "SampleRank: %d steps, %d weight updates, %.1fs; decode accuracy %.3f\n"
    report.Ie.Training.steps report.updates
    (Obs.Timer.seconds (Obs.Timer.elapsed_ns t0))
    report.accuracy_after;

  (* Evaluate Query 1 under both strategies on identical chains. *)
  let sql = "SELECT STRING FROM TOKEN WHERE LABEL='B-PER'" in
  let run strategy seed =
    let rng = Mcmc.Rng.create seed in
    let proposal = Ie.Proposals.batched_flip ~rng crf in
    let pdb = Pdb.create ~world ~proposal ~rng in
    let t0 = Obs.Timer.start () in
    let m = Evaluator.evaluate_sql strategy pdb ~sql ~thin:2_000 ~samples:40 in
    (m, Obs.Timer.seconds (Obs.Timer.elapsed_ns t0))
  in
  let m_mat, t_mat = run Evaluator.Materialized 42 in
  let _, t_naive = run Evaluator.Naive 42 in
  Printf.printf "\nQuery 1: %s\n" sql;
  Printf.printf "materialized evaluator: %.2fs | naive evaluator: %.2fs\n" t_mat t_naive;

  let top =
    Marginals.estimates m_mat
    |> List.sort (fun (_, a) (_, b) -> compare b a)
    |> fun l -> List.filteri (fun i _ -> i < 12) l
  in
  Printf.printf "\ntop person-mention strings (probability of being in the answer):\n";
  List.iter
    (fun (row, p) ->
      Printf.printf "  %-12s %.3f\n" (Relational.Value.to_string (Relational.Row.get row 0)) p)
    top
