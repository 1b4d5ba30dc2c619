(* Any-time top-k with calibrated uncertainty: which strings are most likely
   to be person mentions? The top-k evaluator samples only until the ranking
   is stable at 95% confidence (the MystiQ-style workload of [22, 5] in the
   paper's related work), and every probability comes with a Wilson
   interval. *)

open Core

let () =
  let docs = Ie.Corpus.generate_tokens ~seed:3 ~n_tokens:6_000 in
  let db = Relational.Database.create () in
  ignore (Ie.Token_table.load db docs : Relational.Table.t);
  let world = World.create db in
  let crf = Ie.Crf.create ~params:(Ie.Crf.default_params ()) world in
  let rng = Mcmc.Rng.create 17 in
  let pdb = Pdb.create ~world ~proposal:(Ie.Proposals.bio_constrained_flip crf) ~rng in

  (* Burn in, then evaluate top-10 with early stopping. *)
  Pdb.walk pdb ~steps:60_000;
  let query = Relational.Sql.parse "SELECT STRING FROM TOKEN WHERE LABEL='B-PER'" in
  let t0 = Obs.Timer.start () in
  let res = Topk_eval.evaluate ~max_samples:1_200 pdb ~query ~k:10 ~thin:400 in
  Printf.printf "top-10 person strings after %d samples (%.2fs, early stop: %b)\n\n"
    res.Topk_eval.samples_used
    (Obs.Timer.seconds (Obs.Timer.elapsed_ns t0))
    res.separated;

  (* Re-estimate with intervals on a fresh marginal pass for reporting. *)
  let m = Evaluator.evaluate Evaluator.Materialized pdb ~query ~thin:400 ~samples:300 in
  Printf.printf "%-14s %-8s %-16s\n" "string" "p" "95% interval";
  List.iter
    (fun (row, _) ->
      let p = Marginals.probability m row in
      let lo, hi = Confidence.wilson_interval m row in
      Printf.printf "%-14s %-8.3f [%.3f, %.3f]\n"
        (Relational.Value.to_string (Relational.Row.get row 0))
        p lo hi)
    res.ranking;

  (* Evidence: a user pins one token's label; the posterior shifts. *)
  print_newline ();
  let boston_tok = ref (-1) in
  (try
     for i = 0 to Ie.Crf.n_tokens crf - 1 do
       if Ie.Crf.token_string crf i = "Boston" then begin
         boston_tok := i;
         raise Exit
       end
     done
   with Exit -> ());
  if !boston_tok >= 0 then begin
    Printf.printf "clamping token %d (\"Boston\") to B-ORG as user-provided evidence...\n"
      !boston_tok;
    Ie.Crf.clamp crf ~pos:!boston_tok (Ie.Labels.B Ie.Labels.Org);
    let q_org = Relational.Sql.parse "SELECT COUNT(*) FROM TOKEN WHERE LABEL='B-ORG'" in
    let m2 = Evaluator.evaluate Evaluator.Materialized pdb ~query:q_org ~thin:400 ~samples:300 in
    Printf.printf "E[#B-ORG labels | evidence] = %.1f\n" (Aggregate.expectation m2)
  end
