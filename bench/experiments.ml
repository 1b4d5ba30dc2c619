(* One experiment per table/figure of the paper's evaluation (§5), plus the
   ablations listed in DESIGN.md. Each prints the same series/rows the paper
   reports; EXPERIMENTS.md records the comparison. *)

open Core

(* Bench timings go through the Obs clock so the whole tree observes the R2
   clock discipline (see docs/STATIC_ANALYSIS.md): one never-decreasing
   source of time, [Obs.Timer.now_ns]. *)
let now_s () = Obs.Timer.seconds (Obs.Timer.now_ns ())

let query1 = "SELECT STRING FROM TOKEN WHERE LABEL='B-PER'"
let query2 = "SELECT COUNT(*) FROM TOKEN WHERE LABEL='B-PER'"

let query3 =
  "SELECT T.doc_id FROM Token T WHERE (SELECT COUNT(*) FROM Token T1 WHERE \
   T1.label='B-PER' AND T.doc_id=T1.doc_id) = (SELECT COUNT(*) FROM Token T1 WHERE \
   T1.label='B-ORG' AND T.doc_id=T1.doc_id)"

let query4 =
  "SELECT T2.STRING FROM TOKEN T1, TOKEN T2 WHERE T1.STRING='Boston' AND \
   T1.LABEL='B-ORG' AND T1.DOC_ID=T2.DOC_ID AND T2.LABEL='B-PER'"

(* ------------------------------------------------------------------ *)
(* E1 — Figure 4(a): scalability of query evaluation. Time to halve the
   squared error from the initial single-sample approximation, naive vs
   materialized, as the database grows. *)

let e1 ~full () =
  Harness.print_header
    "E1 / Figure 4(a): time to halve squared error vs database size (Query 1)";
  let sizes =
    if full then [ 1_000; 5_000; 10_000; 50_000; 100_000; 200_000; 500_000 ]
    else [ 1_000; 5_000; 10_000; 50_000; 100_000 ]
  in
  let thin = 500 in
  let query = Relational.Sql.parse query1 in
  Printf.printf "  %-9s %-13s %9s %9s %9s %9s\n" "tuples" "evaluator" "total(s)" "query(s)"
    "walk(s)" "samples";
  List.iter
    (fun n ->
      let truth = Harness.ground_truth ~corpus_seed:100 ~n_tokens:n ~query ~thin ~samples:150 () in
      List.iter
        (fun strategy ->
          let inst =
            Harness.make_instance ~corpus_seed:100 ~chain_seed:(7 * n) ~n_tokens:n ()
          in
          let r =
            Harness.run_until_half_error strategy inst ~query ~thin ~truth ~max_samples:3_000
          in
          Printf.printf "  %-9d %-13s %9.3f %9.3f %9.3f %9d\n%!" inst.Harness.n_tokens
            (Evaluator.strategy_name strategy)
            r.Harness.total_s r.query_s r.walk_s r.samples_used)
        [ Evaluator.Materialized; Evaluator.Naive ])
    sizes;
  Printf.printf
    "  (query(s) is the DBMS-side cost the view maintenance attacks; the paper's\n\
    \   Derby testbed made that term dominant, so their total-time gap is larger.)\n"

(* ------------------------------------------------------------------ *)
(* E2 — Figure 4(b): normalized loss over time for the two evaluators on a
   fixed database. *)

let e2 ~full () =
  let n = if full then 100_000 else 30_000 in
  Harness.print_header
    (Printf.sprintf "E2 / Figure 4(b): loss over time, %d tuples (Query 1)" n);
  let thin = 500 in
  let query = Relational.Sql.parse query1 in
  let truth = Harness.ground_truth ~corpus_seed:101 ~n_tokens:n ~query ~thin ~samples:150 () in
  List.iter
    (fun strategy ->
      let inst = Harness.make_instance ~corpus_seed:101 ~chain_seed:11 ~n_tokens:n () in
      let series = Harness.loss_series strategy inst ~query ~thin ~samples:120 ~truth in
      Harness.print_series ~label:(Evaluator.strategy_name strategy) ~stride:12 series)
    [ Evaluator.Materialized; Evaluator.Naive ]

(* ------------------------------------------------------------------ *)
(* E3 — Figure 5: parallelizing query evaluation. Squared error after a
   fixed number of samples per chain, vs the number of chains. *)

let e3 ~full () =
  let n = if full then 50_000 else 10_000 in
  Harness.print_header
    (Printf.sprintf "E3 / Figure 5: parallel chains, %d tuples (Query 1)" n);
  let thin = 500 and samples = 25 in
  let query = Relational.Sql.parse query1 in
  let truth = Harness.ground_truth ~corpus_seed:102 ~n_tokens:n ~query ~thin ~samples:200 () in
  let err_of_chains c =
    let m =
      Harness.pooled ~burn_in:(120 * thin) ~chains:c
        ~make:(fun ~chain ->
          (Harness.make_instance ~corpus_seed:102 ~chain_seed:(500 + (37 * chain) + c)
             ~n_tokens:n ())
            .Harness.pdb)
        ~query ~thin ~samples ()
    in
    Marginals.squared_error_to ~reference:truth m
  in
  let base = err_of_chains 1 in
  Printf.printf "  %-8s %12s %12s\n" "chains" "sq.error" "ideal (1/c)";
  for c = 1 to 8 do
    let e = if c = 1 then base else err_of_chains c in
    Printf.printf "  %-8d %12.5f %12.5f\n%!" c e (base /. float_of_int c)
  done

(* ------------------------------------------------------------------ *)
(* E4 — Figure 6: aggregate query evaluation loss over time (Queries 2–3). *)

let e4 ~full () =
  let n = if full then 100_000 else 15_000 in
  Harness.print_header
    (Printf.sprintf "E4 / Figure 6: aggregate queries, normalized loss over time (%d tuples)" n);
  let thin = 500 in
  List.iter
    (fun (name, sql) ->
      let query = Relational.Sql.parse sql in
      let truth = Harness.ground_truth ~corpus_seed:103 ~n_tokens:n ~query ~thin ~samples:200 () in
      let inst = Harness.make_instance ~corpus_seed:103 ~chain_seed:21 ~n_tokens:n () in
      let series =
        Harness.loss_series Evaluator.Materialized inst ~query ~thin ~samples:150 ~truth
      in
      Harness.print_series ~label:name ~stride:15 series)
    [ ("query-2", query2); ("query-3", query3) ]

(* ------------------------------------------------------------------ *)
(* E5 — Figure 7: the answer distribution of Query 2 as a histogram. *)

let e5 ~full () =
  let n = if full then 100_000 else 20_000 in
  Harness.print_header
    (Printf.sprintf "E5 / Figure 7: distribution of person-mention counts (%d tuples)" n);
  let inst = Harness.make_instance ~corpus_seed:104 ~chain_seed:31 ~n_tokens:n () in
  let m =
    Evaluator.evaluate_sql ~burn_in:(12 * n) Evaluator.Materialized inst.Harness.pdb
      ~sql:query2 ~thin:200 ~samples:3_000
  in
  Printf.printf "  E[count]=%.1f sd=%.1f\n" (Aggregate.expectation m)
    (sqrt (Aggregate.variance m));
  let dist = Aggregate.distribution m in
  let values = List.map (fun (v, _) -> Relational.Value.to_float v) dist in
  let lo = List.fold_left min infinity values and hi = List.fold_left max neg_infinity values in
  let buckets = 16 in
  let width = max 1. ((hi -. lo) /. float_of_int buckets) in
  let mass = Array.make buckets 0. in
  List.iter
    (fun (v, p) ->
      let b = min (buckets - 1) (int_of_float ((Relational.Value.to_float v -. lo) /. width)) in
      mass.(b) <- mass.(b) +. p)
    dist;
  Array.iteri
    (fun b p ->
      Printf.printf "  [%6.0f,%6.0f) %6.3f %s\n"
        (lo +. (width *. float_of_int b))
        (lo +. (width *. float_of_int (b + 1)))
        p
        (String.make (int_of_float (60. *. p)) '#'))
    mass

(* ------------------------------------------------------------------ *)
(* E6 — Figure 8 / Query 4: per-tuple probabilities of the join query. *)

let e6 ~full () =
  let n = if full then 100_000 else 20_000 in
  Harness.print_header
    (Printf.sprintf "E6 / Figure 8: Query 4 per-tuple probabilities (%d tuples)" n);
  let inst = Harness.make_instance ~corpus_seed:105 ~chain_seed:41 ~n_tokens:n () in
  let m =
    Evaluator.evaluate_sql ~burn_in:(12 * n) Evaluator.Materialized inst.Harness.pdb
      ~sql:query4 ~thin:500 ~samples:600
  in
  let answers = Marginals.estimates m |> List.sort (fun (_, a) (_, b) -> compare b a) in
  Printf.printf "  persons co-occurring with 'Boston' labelled B-ORG (selected tuples\n";
  Printf.printf "  across the probability range, as in Figure 8):\n";
  let n_answers = List.length answers in
  let picks = 14 in
  List.iteri
    (fun i (row, p) ->
      if n_answers <= picks || i mod (max 1 (n_answers / picks)) = 0 then
        Printf.printf "  %-14s %.3f %s\n"
          (Relational.Value.to_string (Relational.Row.get row 0))
          p
          (String.make (int_of_float (40. *. p)) '#'))
    answers;
  if answers = [] then
    Printf.printf "  (no Boston-as-ORG worlds sampled — increase samples or size)\n"

(* ------------------------------------------------------------------ *)
(* E7 — §5.2: SampleRank training speed and quality. *)

let e7 ~full () =
  let n = if full then 100_000 else 20_000 in
  Harness.print_header (Printf.sprintf "E7 / §5.2: SampleRank training (%d tuples)" n);
  let docs = Ie.Corpus.generate_tokens ~seed:106 ~n_tokens:n in
  let db = Relational.Database.create () in
  ignore (Ie.Token_table.load db docs : Relational.Table.t);
  let world = World.create db in
  let params = Factorgraph.Params.create () in
  let crf = Ie.Crf.create ~params world in
  let t0 = now_s () in
  let report = Ie.Training.train ~steps:300_000 ~rng:(Mcmc.Rng.create 51) crf in
  Printf.printf
    "  %d SampleRank steps in %.1fs; %d weight updates; %d features;\n\
    \  token accuracy: %.3f (all-O baseline) -> %.3f (greedy decode)\n"
    report.Ie.Training.steps
    (now_s () -. t0)
    report.updates
    (Factorgraph.Params.cardinal params)
    report.accuracy_before report.accuracy_after;
  (* Segment-level scores of the learned model (greedy decode). *)
  Ie.Training.greedy_decode crf ~sweeps:3;
  Printf.printf "  mention-level: %s\n" (Format.asprintf "%a" Ie.Metrics.pp (Ie.Metrics.score_crf crf))

(* ------------------------------------------------------------------ *)
(* A1 — ablation: loopy BP vs exact vs MCMC on a small skip-chain (the
   paper's §5.3 claim that BP is unreliable on these graphs while MCMC
   recovers the marginals). *)

let a1 () =
  Harness.print_header "A1 / ablation: loopy BP vs MCMC on skip-chain fragments";
  let params = Ie.Crf.default_params () in
  (* A fragment small enough to enumerate exactly: 9^5 ≈ 59k states. *)
  let run_case ~name ~params ~tokens ~bp_damping =
    let { Factorgraph.Templates.graph; labels; assignment } =
      Factorgraph.Templates.unroll_chain ~skip_edges:true ~params
        ~label_domain:Ie.Labels.domain ~tokens ()
    in
    let exact = Factorgraph.Exact.marginals graph assignment in
    let bp = Factorgraph.Bp.run ~max_iters:200 ~damping:bp_damping graph assignment in
    let world = Mcmc.Graph_model.world_of graph in
    let rng = Mcmc.Rng.create 61 in
    Mcmc.Metropolis.run rng (Mcmc.Graph_model.flip ()) world ~steps:20_000;
    let counts = Array.make_matrix (Array.length labels) 9 0 in
    let samples = 60_000 in
    for _ = 1 to samples do
      Mcmc.Metropolis.run rng (Mcmc.Graph_model.flip ()) world ~steps:10;
      Array.iteri
        (fun i v ->
          let x = Factorgraph.Assignment.get world.Mcmc.Graph_model.assignment v in
          counts.(i).(x) <- counts.(i).(x) + 1)
        labels
    done;
    let err_of approx =
      let acc = ref 0. in
      List.iter
        (fun (v, truth_dist) ->
          let a : float array = approx v in
          Array.iteri (fun x p -> acc := !acc +. ((p -. a.(x)) ** 2.)) truth_dist)
        exact;
      !acc
    in
    let bp_err = err_of (fun v -> List.assoc v bp.Factorgraph.Bp.marginals) in
    let var_index = Array.to_list (Array.mapi (fun i v -> (v, i)) labels) in
    let mcmc_err =
      err_of (fun v ->
          let i = List.assoc v var_index in
          Array.map (fun c -> float_of_int c /. float_of_int samples) counts.(i))
    in
    Printf.printf "  %s:\n" name;
    Printf.printf "    BP:   converged=%b iterations=%d residual=%.2e sq.error=%.5f\n"
      bp.Factorgraph.Bp.converged bp.iterations bp.max_residual bp_err;
    Printf.printf "    MCMC: %d samples, sq.error=%.5f\n%!" samples mcmc_err
  in
  run_case ~name:"attractive skip chain (default weights)" ~params
    ~tokens:[| "Bill"; "saw"; "IBM"; "and"; "IBM" |] ~bp_damping:0.3;
  (* A frustrated variant: three identical strings whose skip edges form an
     odd cycle with repulsive coupling — the regime where sum-product is
     known to oscillate, while MCMC remains exact in the limit. *)
  let frustrated = Factorgraph.Params.copy params in
  Factorgraph.Params.set frustrated (Factorgraph.Templates.skip_feature ~same:true) (-4.);
  Factorgraph.Params.set frustrated (Factorgraph.Templates.skip_feature ~same:false) 1.5;
  run_case ~name:"frustrated skip loop (repulsive weights)" ~params:frustrated
    ~tokens:[| "IBM"; "a"; "IBM"; "b"; "IBM" |] ~bp_damping:0.

(* ------------------------------------------------------------------ *)
(* A3 — ablation: the thinning parameter k (§4.1): loss after a fixed MH
   step budget, for several k. *)

let a3 ~full () =
  let n = if full then 50_000 else 15_000 in
  Harness.print_header
    (Printf.sprintf "A3 / ablation: thinning k under a fixed step budget (%d tuples)" n);
  let budget = 200_000 in
  let query = Relational.Sql.parse query1 in
  let truth = Harness.ground_truth ~corpus_seed:107 ~n_tokens:n ~query ~thin:500 ~samples:200 () in
  Printf.printf "  %-8s %-9s %10s %10s\n" "k" "samples" "loss" "time(s)";
  List.iter
    (fun k ->
      let inst = Harness.make_instance ~corpus_seed:107 ~chain_seed:71 ~n_tokens:n () in
      let samples = budget / k in
      let t0 = now_s () in
      let m =
        Evaluator.evaluate Evaluator.Materialized inst.Harness.pdb ~query ~thin:k ~samples
      in
      Printf.printf "  %-8d %-9d %10.5f %10.3f\n%!" k samples
        (Marginals.squared_error_to ~reference:truth m)
        (now_s () -. t0))
    [ 100; 500; 2_000; 10_000 ]


(* ------------------------------------------------------------------ *)
(* A4 — ablation: jump functions (§6's future-work direction). Uniform
   single flips, the BIO-constrained flip of Appendix 9.3, and a mixture
   with whole-segment block moves, compared on loss after equal step
   budgets. *)

let a4 ~full () =
  let n = if full then 50_000 else 12_000 in
  Harness.print_header
    (Printf.sprintf "A4 / ablation: proposal distributions (%d tuples, Query 1)" n);
  let thin = 500 and samples = 80 in
  let query = Relational.Sql.parse query1 in
  let truth = Harness.ground_truth ~corpus_seed:108 ~n_tokens:n ~query ~thin ~samples:200 () in
  let proposers =
    [ ("uniform-flip", fun crf _rng -> Ie.Proposals.uniform_flip crf);
      ("batched-flip", fun crf rng -> Ie.Proposals.batched_flip ~rng crf);
      ("bio-constrained", fun crf _rng -> Ie.Proposals.bio_constrained_flip crf);
      ("flip+segment mix",
       fun crf _rng ->
         Mcmc.Proposal.mix
           [| (0.6, Ie.Proposals.uniform_flip crf); (0.4, Ie.Proposals.segment_flip crf) |]) ]
  in
  Printf.printf "  %-18s %10s %12s %10s\n" "proposer" "loss" "acceptance" "time(s)";
  List.iter
    (fun (name, make_proposal) ->
      let docs = Ie.Corpus.generate_tokens ~seed:108 ~n_tokens:n in
      let db = Relational.Database.create () in
      ignore (Ie.Token_table.load db docs : Relational.Table.t);
      let world = World.create db in
      let crf = Ie.Crf.create ~params:(Ie.Crf.default_params ()) world in
      let rng = Mcmc.Rng.create 81 in
      let pdb = Pdb.create ~world ~proposal:(make_proposal crf rng) ~rng in
      let t0 = now_s () in
      let m = Evaluator.evaluate Evaluator.Materialized pdb ~query ~thin ~samples in
      Printf.printf "  %-18s %10.4f %12.3f %10.3f\n%!" name
        (Marginals.squared_error_to ~reference:truth m)
        (Pdb.acceptance_rate pdb)
        (now_s () -. t0))
    proposers


(* ------------------------------------------------------------------ *)
(* A5 — ablation: generative (MCDB-style [13]) vs MCMC+views. On a linear
   chain the generative sampler draws exact i.i.d. worlds (FFBS), but each
   sample costs a full-corpus regeneration plus a full query; the MCMC
   evaluator pays a few hundred walk steps and a delta-sized view update.
   On the skip-chain model the generative sampler does not exist at all —
   the representational point of the paper. *)

let a5 ~full () =
  let n = if full then 60_000 else 15_000 in
  Harness.print_header
    (Printf.sprintf "A5 / ablation: MCDB-style generative vs MCMC+views (%d tuples, linear chain)" n);
  let query = Relational.Sql.parse query1 in
  let params = Ie.Crf.default_params () in
  (* Truth from a long exact i.i.d. run. *)
  let make_crf chain_seed =
    let docs = Ie.Corpus.generate_tokens ~seed:109 ~n_tokens:n in
    let db = Relational.Database.create () in
    ignore (Ie.Token_table.load db docs : Relational.Table.t);
    let world = World.create db in
    (world, Ie.Crf.create ~skip_edges:false ~params world, Mcmc.Rng.create chain_seed)
  in
  let _, truth_crf, truth_rng = make_crf 1001 in
  let truth =
    Marginals.estimates
      (Ie.Generative_eval.evaluate ~rng:truth_rng ~crf:truth_crf ~query ~samples:1_000 ())
  in
  (* Generative evaluator: loss at sample checkpoints. *)
  let _, gen_crf, gen_rng = make_crf 1003 in
  let gen_series = ref [] in
  let record i t m =
    if i mod 20 = 0 then
      gen_series := (t, Marginals.squared_error_to ~reference:truth m) :: !gen_series
  in
  let (_ : Marginals.t) =
    Ie.Generative_eval.evaluate ~on_sample:record ~rng:gen_rng ~crf:gen_crf ~query ~samples:200 ()
  in
  (* MCMC materialized evaluator on the same model. *)
  let world, crf, rng = make_crf 1004 in
  let pdb = Pdb.create ~world ~proposal:(Ie.Proposals.uniform_flip crf) ~rng in
  let mcmc_series = ref [] in
  (* Give MCMC the same wall-clock budget the generative run used: its
     samples are three orders of magnitude cheaper, so it takes many more
     of them. *)
  let _ =
    Evaluator.evaluate
      ~on_sample:(fun p ->
        if p.Evaluator.sample mod 1000 = 0 then
          mcmc_series :=
            (p.Evaluator.elapsed, Marginals.squared_error_to ~reference:truth p.Evaluator.marginals)
            :: !mcmc_series)
      Evaluator.Materialized pdb ~query ~thin:500 ~samples:14_000
  in
  Printf.printf "  %-22s %10s %10s\n" "evaluator" "time(s)" "loss";
  List.iter
    (fun (t, e) -> Printf.printf "  %-22s %10.3f %10.4f\n" "generative (iid)" t e)
    (List.rev !gen_series);
  List.iter
    (fun (t, e) -> Printf.printf "  %-22s %10.3f %10.4f\n" "mcmc+views" t e)
    (List.rev !mcmc_series);
  Printf.printf
    "  (the generative sampler requires the chain normalizer: on the paper's\n\
    \   skip-chain model it is not defined, while the MCMC column is unchanged.)\n"


(* ------------------------------------------------------------------ *)
(* A6 — ablation: query-targeted proposals (§4.1's suggestion (2)). On a
   selective query (Query 4), restricting flips to the documents that can
   influence the answer concentrates all sampling effort where it counts. *)

let a6 ~full () =
  let n = if full then 100_000 else 20_000 in
  Harness.print_header
    (Printf.sprintf "A6 / ablation: query-targeted proposal (%d tuples, Query 4)" n);
  let query = Relational.Sql.parse query4 in
  (* Truth from a long targeted run (targeting is exact; see test suite). *)
  let truth =
    let docs = Ie.Corpus.generate_tokens ~seed:110 ~n_tokens:n in
    let db = Relational.Database.create () in
    ignore (Ie.Token_table.load db docs : Relational.Table.t);
    let world = World.create db in
    let crf = Ie.Crf.create ~params:(Ie.Crf.default_params ()) world in
    let rng = Mcmc.Rng.create 2001 in
    let pdb = Pdb.create ~world ~proposal:(Ie.Proposals.query_targeted crf query) ~rng in
    Marginals.estimates
      (Evaluator.evaluate ~burn_in:100_000 Evaluator.Materialized pdb ~query ~thin:500
         ~samples:2_000)
  in
  Printf.printf "  %-18s %10s %12s\n" "proposer" "loss" "time(s)";
  List.iter
    (fun (name, make_proposal) ->
      let docs = Ie.Corpus.generate_tokens ~seed:110 ~n_tokens:n in
      let db = Relational.Database.create () in
      ignore (Ie.Token_table.load db docs : Relational.Table.t);
      let world = World.create db in
      let crf = Ie.Crf.create ~params:(Ie.Crf.default_params ()) world in
      let rng = Mcmc.Rng.create 2002 in
      let pdb = Pdb.create ~world ~proposal:(make_proposal crf rng) ~rng in
      let t0 = now_s () in
      let m = Evaluator.evaluate Evaluator.Materialized pdb ~query ~thin:500 ~samples:200 in
      Printf.printf "  %-18s %10.4f %12.3f\n%!" name
        (Marginals.squared_error_to ~reference:truth m)
        (now_s () -. t0))
    [ ("uniform-flip", fun crf _ -> Ie.Proposals.uniform_flip crf);
      ("batched-flip", fun crf rng -> Ie.Proposals.batched_flip ~rng crf);
      ("query-targeted", fun crf _ -> Ie.Proposals.query_targeted crf query) ]


(* ------------------------------------------------------------------ *)
(* A7 — ablation: the #P wall. Exact lineage evaluation on the classic
   hard pattern π_{x,z}(R(x,y) ⋈ S(y,z)) grows exponentially with the fan
   size, while the MCMC evaluator's cost is flat: it never touches the
   normalizer (§1–2 of the paper). *)

let a7 () =
  Harness.print_header "A7 / ablation: the #P wall — exact lineage vs sampling";
  Printf.printf
    "  boolean query exists R(x) & S(x,y) & T(y): its lineage is not read-once,\n\
    \  so exact (Shannon) evaluation blows up while Monte Carlo stays flat.\n";
  let col n = { Relational.Schema.name = n; ty = Relational.Value.T_int } in
  let r_schema = Relational.Schema.make [ col "x" ] in
  let s_schema = Relational.Schema.make [ col "x2"; col "y" ] in
  let t_schema = Relational.Schema.make [ col "y2" ] in
  Printf.printf "  %-6s %16s %16s\n" "k" "exact(s)" "monte-carlo(s)";
  List.iter
    (fun k ->
      let tdb = Tuplepdb.Tipdb.create () in
      let mk i = Relational.Row.make [ Relational.Value.Int i ] in
      Tuplepdb.Tipdb.add_table tdb ~name:"R" r_schema
        (List.init k (fun i -> (mk i, 0.3 +. (0.3 /. float_of_int (i + 1)))));
      Tuplepdb.Tipdb.add_table tdb ~name:"T" t_schema
        (List.init k (fun i -> (mk i, 0.25 +. (0.3 /. float_of_int (i + 1)))));
      Tuplepdb.Tipdb.add_table tdb ~name:"S" s_schema
        (List.concat_map
           (fun i ->
             List.init k (fun j ->
                 ( Relational.Row.make [ Relational.Value.Int i; Relational.Value.Int j ],
                   if (i + j) mod 3 = 0 then 0.9 else 0.6 )))
           (List.init k Fun.id));
      let q =
        Relational.Algebra.(
          Distinct
            (Project
               ( [],
                 join
                   Relational.Expr.(col "y" = col "y2")
                   (join Relational.Expr.(col "x" = col "x2") (scan "R") (scan "S"))
                   (scan "T") )))
      in
      let time f =
        let t0 = now_s () in
        (try ignore (f ()) with Failure _ -> ());
        now_s () -. t0
      in
      let exact_s =
        let t0 = now_s () in
        match Tuplepdb.Tipdb.answer_probabilities ~budget:400_000 tdb q with
        | _ -> Printf.sprintf "%16.4f" (now_s () -. t0)
        | exception Failure _ -> Printf.sprintf "%16s" "budget blown"
      in
      let t_mc =
        time (fun () ->
            Tuplepdb.Tipdb.answer_probabilities ~method_:(`Monte_carlo (20_000, 1)) tdb q)
      in
      Printf.printf "  %-6d %s %16.4f\n%!" k exact_s t_mc)
    [ 3; 5; 7; 8; 9; 10 ]

(* ------------------------------------------------------------------ *)
(* E8 — extension: entity resolution at scale (the Figure 1 model the paper
   describes but does not benchmark). Mentions are generated from K true
   entities with surface variation; the split-merge + move sampler is
   scored by pairwise precision/recall against the generating truth. *)

let e8 ~full () =
  let n_entities = if full then 60 else 20 in
  let mentions_per = 4 in
  Harness.print_header
    (Printf.sprintf "E8 / extension: entity resolution, %d mentions of %d entities"
       (n_entities * mentions_per) n_entities);
  let rand = Prng.of_seeds [| 404 |] in
  let first = Ie.Lexicon.first_names and last = Ie.Lexicon.last_names in
  let truth = Array.make (n_entities * mentions_per) 0 in
  let strings =
    Array.init (n_entities * mentions_per) (fun i ->
        let e = i / mentions_per in
        truth.(i) <- e;
        let f = first.(e mod Array.length first) and l = last.(e mod Array.length last) in
        match i mod mentions_per with
        | 0 -> f ^ " " ^ l
        | 1 -> String.make 1 f.[0] ^ ". " ^ l
        | 2 -> l
        | _ -> f ^ (if Prng.bool rand then " " ^ l else ""))
  in
  let db = Relational.Database.create () in
  let world, coref = Ie.Coref.load db ~strings in
  let rng = Mcmc.Rng.create 405 in
  let proposal =
    Mcmc.Proposal.mix
      [| (0.7, Ie.Coref.move_proposal coref); (0.3, Ie.Coref.split_merge_proposal coref) |]
  in
  let pdb = Pdb.create ~world ~proposal ~rng in
  let t0 = now_s () in
  let n = Array.length strings in
  let together = Array.make_matrix n n 0 in
  let samples = 2_000 in
  Pdb.walk pdb ~steps:20_000;
  for _ = 1 to samples do
    Pdb.walk pdb ~steps:50;
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        if Ie.Coref.cluster_of coref i = Ie.Coref.cluster_of coref j then
          together.(i).(j) <- together.(i).(j) + 1
      done
    done
  done;
  (* Pairwise scores at the 0.5 posterior threshold. *)
  let tp = ref 0 and fp = ref 0 and fn = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let predicted = 2 * together.(i).(j) > samples in
      let gold = truth.(i) = truth.(j) in
      if predicted && gold then incr tp
      else if predicted then incr fp
      else if gold then incr fn
    done
  done;
  let p = float_of_int !tp /. float_of_int (max 1 (!tp + !fp)) in
  let r = float_of_int !tp /. float_of_int (max 1 (!tp + !fn)) in
  let f1 = if p +. r = 0. then 0. else 2. *. p *. r /. (p +. r) in
  Printf.printf
    "  %d mentions, %d samples in %.1fs; acceptance %.2f\n\
    \  pairwise P=%.3f R=%.3f F1=%.3f at posterior threshold 0.5\n"
    n samples
    (now_s () -. t0)
    (Pdb.acceptance_rate pdb)
    p r f1


(* ------------------------------------------------------------------ *)
(* A8 — ablation: adaptive thinning (§4.1's closing suggestion). The
   controller balances walk time against query-evaluation time, landing at
   small k for cheap (materialized) evaluation and large k for the naive
   evaluator on the same workload. *)

let a8 ~full () =
  let n = if full then 100_000 else 25_000 in
  Harness.print_header (Printf.sprintf "A8 / ablation: adaptive thinning (%d tuples, Query 1)" n);
  let query = Relational.Sql.parse query1 in
  Printf.printf "  %-13s %10s %10s %10s %10s\n" "evaluator" "final k" "walk(s)" "query(s)" "samples";
  List.iter
    (fun strategy ->
      let inst = Harness.make_instance ~corpus_seed:111 ~chain_seed:91 ~n_tokens:n () in
      let rep =
        Adaptive.evaluate ~strategy ~initial_thin:1_000 inst.Harness.pdb ~query ~samples:150
      in
      Printf.printf "  %-13s %10d %10.3f %10.3f %10d\n%!"
        (Evaluator.strategy_name strategy)
        rep.Adaptive.final_thin rep.walk_s rep.query_s
        (Marginals.samples rep.marginals))
    [ Evaluator.Materialized; Evaluator.Naive ]
