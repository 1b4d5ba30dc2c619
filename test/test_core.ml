(* Tests for the PDB core: worlds with delta tracking, marginal estimators,
   the two query evaluation strategies (and their equivalence on a shared
   chain), aggregates, graph-backed PDBs validated against exact inference,
   and parallel evaluation. *)

open Relational
open Core

let r vs = Row.make vs

(* A bag holding each listed row once per occurrence. *)
let bag_of_rows rows =
  let b = Bag.create () in
  List.iter (Bag.add b) rows;
  b

let feq ?(eps = 1e-9) msg a b =
  if abs_float (a -. b) > eps then Alcotest.failf "%s: expected %.12g, got %.12g" msg a b

(* ------------------------------------------------------------------ *)
(* A small database with one uncertain column. *)

let small_db () =
  let db = Database.create () in
  let schema =
    Schema.make
      [ { Schema.name = "id"; ty = Value.T_int };
        { Schema.name = "color"; ty = Value.T_text } ]
  in
  let t = Database.create_table db ~pk:"id" ~name:"ITEM" schema in
  for i = 0 to 3 do
    Table.insert t (r [ Value.Int i; Value.Text "red" ])
  done;
  db

let color_field i = Field.make ~table:"ITEM" ~key:(Value.Int i) ~column:"color"

(* ------------------------------------------------------------------ *)
(* World *)

let test_world_write_through () =
  let db = small_db () in
  let w = World.create db in
  World.set_field w (color_field 1) (Value.Text "blue");
  Alcotest.(check string) "field updated" "blue"
    (Value.to_string (World.get_field w (color_field 1)));
  let d = World.drain_delta w in
  Alcotest.(check int) "delta magnitude" 2 (Delta.total_magnitude d);
  Alcotest.(check bool) "pending reset" true (Delta.is_empty (World.pending_delta w))

let test_world_noop_write () =
  let db = small_db () in
  let w = World.create db in
  World.set_field w (color_field 0) (Value.Text "red");
  Alcotest.(check bool) "no-op records nothing" true (Delta.is_empty (World.pending_delta w))

let test_world_coalesce () =
  let db = small_db () in
  let w = World.create db in
  World.set_field w (color_field 2) (Value.Text "blue");
  World.set_field w (color_field 2) (Value.Text "red");
  Alcotest.(check bool) "round trip coalesces" true (Delta.is_empty (World.pending_delta w))

let test_world_unknown_field () =
  let db = small_db () in
  let w = World.create db in
  match World.get_field w (color_field 99) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

(* ------------------------------------------------------------------ *)
(* Marginals *)

let test_marginals_basic () =
  let m = Marginals.create () in
  Marginals.observe m (bag_of_rows [ r [ Value.Int 1 ] ]);
  Marginals.observe m (bag_of_rows [ r [ Value.Int 1 ]; r [ Value.Int 2 ] ]);
  feq "p(1)" 1.0 (Marginals.probability m (r [ Value.Int 1 ]));
  feq "p(2)" 0.5 (Marginals.probability m (r [ Value.Int 2 ]));
  feq "p(unseen)" 0.0 (Marginals.probability m (r [ Value.Int 3 ]));
  Alcotest.(check int) "samples" 2 (Marginals.samples m)

let test_marginals_multiset_membership () =
  let m = Marginals.create () in
  let b = Bag.create () in
  Bag.add ~count:3 b (r [ Value.Int 7 ]);
  Bag.add ~count:0 b (r [ Value.Int 8 ]);
  Marginals.observe m b;
  feq "multiplicity does not inflate" 1.0 (Marginals.probability m (r [ Value.Int 7 ]));
  feq "zero-count row absent" 0.0 (Marginals.probability m (r [ Value.Int 8 ]))

let test_marginals_merge () =
  let a = Marginals.create () and b = Marginals.create () in
  Marginals.observe a (bag_of_rows [ r [ Value.Int 1 ] ]);
  Marginals.observe b (bag_of_rows []);
  let m = Marginals.merge [ a; b ] in
  feq "pooled" 0.5 (Marginals.probability m (r [ Value.Int 1 ]));
  Alcotest.(check int) "pooled z" 2 (Marginals.samples m)

(* Pooling chains of unequal sample counts (the serve layer produces these
   when chains stop at different times): counts and normalizers both add,
   so the pooled rate is count-weighted — not the mean of per-chain
   rates. *)
let test_marginals_merge_unequal_counts () =
  let a = Marginals.create () and b = Marginals.create () in
  Marginals.observe a (bag_of_rows [ r [ Value.Int 1 ] ]);
  Marginals.observe a (bag_of_rows [ r [ Value.Int 1 ]; r [ Value.Int 2 ] ]);
  Marginals.observe a (bag_of_rows []);
  Marginals.observe b (bag_of_rows [ r [ Value.Int 1 ] ]);
  let m = Marginals.merge [ a; b ] in
  Alcotest.(check int) "pooled z = 3 + 1" 4 (Marginals.samples m);
  feq "p(1) = 3/4 (count-weighted, not (2/3 + 1)/2)" 0.75
    (Marginals.probability m (r [ Value.Int 1 ]));
  feq "p(2) = 1/4" 0.25 (Marginals.probability m (r [ Value.Int 2 ]));
  (* Merging with an empty chain (a stopped worker that never sampled)
     changes nothing. *)
  let m' = Marginals.merge [ m; Marginals.create () ] in
  Alcotest.(check int) "empty chain adds no z" 4 (Marginals.samples m');
  feq "empty chain leaves rates" 0.75 (Marginals.probability m' (r [ Value.Int 1 ]))

(* Sharded union: shards hold disjoint data, so the normalizer stays the
   per-shard z and counts add (clamped at z) — a row at probability 1 on
   its owning shard must stay at 1, where chain-merging would halve it. *)
let test_marginals_merge_shards () =
  let a = Marginals.create () and b = Marginals.create () in
  Marginals.observe a (bag_of_rows [ r [ Value.Int 1 ] ]);
  Marginals.observe a (bag_of_rows [ r [ Value.Int 1 ]; r [ Value.Int 3 ] ]);
  Marginals.observe b (bag_of_rows [ r [ Value.Int 2 ] ]);
  Marginals.observe b (bag_of_rows [ r [ Value.Int 1 ] ]);
  let m = Marginals.merge_shards [ a; b ] in
  Alcotest.(check int) "z stays per-shard" 2 (Marginals.samples m);
  feq "shard-exclusive row keeps its rate" 1.0 (Marginals.probability m (r [ Value.Int 1 ]))
    (* 2/2 from shard a, 1/2 from shard b → clamped union bound 2/2 *);
  feq "p(2) from its shard" 0.5 (Marginals.probability m (r [ Value.Int 2 ]));
  feq "p(3) from its shard" 0.5 (Marginals.probability m (r [ Value.Int 3 ]));
  Alcotest.(check int) "empty list is empty" 0 (Marginals.samples (Marginals.merge_shards []));
  Marginals.observe b (bag_of_rows []);
  Alcotest.check_raises "unequal z rejected"
    (Invalid_argument "Marginals.merge_shards: shards observed different sample counts")
    (fun () -> ignore (Marginals.merge_shards [ a; b ] : Marginals.t))

let test_marginals_squared_error () =
  let a = Marginals.create () in
  Marginals.observe a (bag_of_rows [ r [ Value.Int 1 ] ]);
  (* reference: p(1)=0.5, p(2)=1.0; estimate: p(1)=1.0, p(2)=0.0 *)
  let reference = [ (r [ Value.Int 1 ], 0.5); (r [ Value.Int 2 ], 1.0) ] in
  feq "squared error" 1.25 (Marginals.squared_error_to ~reference a)

(* The z = 0 convention (marginals.mli): zero observed worlds means no
   evidence — every probability-deriving accessor agrees on 0., none
   substitutes a fake z = 1 normalizer. *)
let test_marginals_zero_samples () =
  let m = Marginals.create () in
  Alcotest.(check int) "z" 0 (Marginals.samples m);
  feq "probability" 0.0 (Marginals.probability m (r [ Value.Int 1 ]));
  Alcotest.(check int) "estimates empty" 0 (List.length (Marginals.estimates m));
  (* squared_error_to charges only the reference's own mass. *)
  let reference = [ (r [ Value.Int 1 ], 0.5); (r [ Value.Int 2 ], 1.0) ] in
  feq "error = sum of reference squares" 1.25 (Marginals.squared_error_to ~reference m);
  feq "error vs empty reference" 0.0 (Marginals.squared_error_to ~reference:[] m);
  (* Same convention survives the checkpoint codec path. *)
  let m' = Marginals.of_counts ~samples:0 [] in
  feq "restored probability" 0.0 (Marginals.probability m' (r [ Value.Int 1 ]));
  Alcotest.(check int) "restored estimates empty" 0 (List.length (Marginals.estimates m'));
  feq "restored error" 1.25 (Marginals.squared_error_to ~reference m')

(* ------------------------------------------------------------------ *)
(* Graph-backed PDB: a 4-field model with pairwise dependencies, validated
   against exact inference. *)

let color_domain = Factorgraph.Domain.make [ "red"; "blue" ]

let build_graph_pdb ?(seed = 5) () =
  let db = small_db () in
  let world = World.create db in
  let gp = Graph_pdb.create world in
  let vars = Array.init 4 (fun i -> Graph_pdb.bind gp (color_field i) color_domain) in
  let g = Graph_pdb.graph gp in
  (* biases toward blue, chain coupling rewarding agreement *)
  Array.iter (fun v -> ignore (Factorgraph.Graph.add_table_factor g ~scope:[| v |] [| 0.; 0.7 |])) vars;
  for i = 0 to 2 do
    ignore
      (Factorgraph.Graph.add_table_factor g ~scope:[| vars.(i); vars.(i + 1) |]
         [| 1.0; 0.; 0.; 1.0 |])
  done;
  (gp, vars, Pdb.create ~world ~proposal:(Graph_pdb.flip_proposal gp) ~rng:(Mcmc.Rng.create seed))

let query_blue = Sql.parse "SELECT id FROM ITEM WHERE color='blue'"

let test_graph_pdb_write_through () =
  let gp, vars, _ = build_graph_pdb () in
  Graph_pdb.set gp vars.(2) 1;
  let w = Graph_pdb.world gp in
  Alcotest.(check string) "db follows variable" "blue"
    (Value.to_string (World.get_field w (color_field 2)))

let test_graph_pdb_bind_errors () =
  let gp, _, _ = build_graph_pdb () in
  (match Graph_pdb.bind gp (color_field 0) color_domain with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "re-binding must fail");
  let db2 = small_db () in
  let w2 = World.create db2 in
  let gp2 = Graph_pdb.create w2 in
  let bad_domain = Factorgraph.Domain.make [ "green"; "blue" ] in
  match Graph_pdb.bind gp2 (color_field 0) bad_domain with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "value outside domain must fail"

(* The headline invariant: both evaluators, fed the same chain, return
   byte-identical estimates. *)
let test_naive_equals_materialized () =
  let queries =
    [ "SELECT id FROM ITEM WHERE color='blue'";
      "SELECT COUNT(*) FROM ITEM WHERE color='blue'";
      "SELECT color, COUNT(*) AS n FROM ITEM GROUP BY color";
      "SELECT T1.id FROM ITEM T1, ITEM T2 WHERE T1.color=T2.color AND T1.id=0" ]
  in
  List.iter
    (fun sql ->
      let run strategy =
        let _, _, pdb = build_graph_pdb ~seed:77 () in
        Evaluator.evaluate_sql strategy pdb ~sql ~thin:7 ~samples:120
      in
      let naive = Marginals.estimates (run Evaluator.Naive) in
      let mat = Marginals.estimates (run Evaluator.Materialized) in
      if
        List.length naive <> List.length mat
        || not
             (List.for_all2
                (fun (ra, pa) (rb, pb) -> Row.equal ra rb && abs_float (pa -. pb) < 1e-12)
                naive mat)
      then Alcotest.failf "estimates diverge for %s" sql)
    queries

let test_mcmc_matches_exact_event () =
  let gp, vars, pdb = build_graph_pdb ~seed:3 () in
  let g = Graph_pdb.graph gp in
  let a = Graph_pdb.assignment gp in
  (* Exact Pr[item 1 is blue] *)
  let v1 = vars.(1) in
  let exact = Factorgraph.Exact.event_probability g a (fun a -> Factorgraph.Assignment.get a v1 = 1) in
  let m =
    Evaluator.evaluate Evaluator.Materialized pdb ~query:query_blue ~thin:11 ~samples:4000
  in
  feq ~eps:0.03 "MCMC estimate matches exact" exact (Marginals.probability m (r [ Value.Int 1 ]))

let test_progress_callback () =
  let _, _, pdb = build_graph_pdb () in
  let seen = ref [] in
  let _ =
    Evaluator.evaluate
      ~on_sample:(fun p -> seen := p.Evaluator.sample :: !seen)
      Evaluator.Materialized pdb ~query:query_blue ~thin:3 ~samples:5
  in
  Alcotest.(check (list int)) "progress samples" [ 0; 1; 2; 3; 4; 5 ] (List.rev !seen)

(* ------------------------------------------------------------------ *)
(* Aggregates *)

let test_aggregate_distribution () =
  let m = Marginals.create () in
  Marginals.observe m (bag_of_rows [ r [ Value.Int 2 ] ]);
  Marginals.observe m (bag_of_rows [ r [ Value.Int 2 ] ]);
  Marginals.observe m (bag_of_rows [ r [ Value.Int 4 ] ]);
  Marginals.observe m (bag_of_rows [ r [ Value.Int 6 ] ]);
  let dist = Aggregate.distribution m in
  Alcotest.(check int) "three values" 3 (List.length dist);
  feq "p(2)" 0.5 (List.assoc (Value.Int 2) dist);
  feq "expectation" 3.5 (Aggregate.expectation m);
  feq "variance" (((2. -. 3.5) ** 2. /. 2.) +. ((4. -. 3.5) ** 2. /. 4.) +. ((6. -. 3.5) ** 2. /. 4.))
    (Aggregate.variance m);
  Alcotest.(check bool) "median" true (Value.equal (Aggregate.quantile m 0.5) (Value.Int 2))

(* ------------------------------------------------------------------ *)
(* Confidence intervals and top-k *)

let test_confidence_wilson () =
  let m = Marginals.create () in
  for _ = 1 to 100 do
    Marginals.observe m (bag_of_rows [ r [ Value.Int 1 ] ])
  done;
  (* p̂ = 1: the Wilson interval must stay below 1 but close to it. *)
  let lo, hi = Confidence.wilson_interval m (r [ Value.Int 1 ]) in
  Alcotest.(check bool) "upper is 1" true (hi <= 1.0 +. 1e-12);
  Alcotest.(check bool) "lower below 1" true (lo < 1.0);
  Alcotest.(check bool) "lower still high" true (lo > 0.9);
  (* And for a never-seen tuple the interval must start at 0. *)
  let lo0, hi0 = Confidence.wilson_interval m (r [ Value.Int 2 ]) in
  Alcotest.(check bool) "lower is 0" true (lo0 <= 1e-12);
  Alcotest.(check bool) "upper above 0" true (hi0 > 0.)

let test_confidence_interval_covers () =
  (* Coverage sanity: estimate a known probability repeatedly; the 95%
     interval should contain it most of the time. *)
  let p_true = 0.3 in
  let rand = Prng.of_seeds [| 5 |] in
  let covered = ref 0 in
  let trials = 200 in
  for _ = 1 to trials do
    let m = Marginals.create () in
    for _ = 1 to 60 do
      let present = Prng.float rand 1. < p_true in
      Marginals.observe m (if present then bag_of_rows [ r [ Value.Int 1 ] ] else bag_of_rows [])
    done;
    let lo, hi = Confidence.wilson_interval m (r [ Value.Int 1 ]) in
    if lo <= p_true && p_true <= hi then incr covered
  done;
  let rate = float_of_int !covered /. float_of_int trials in
  Alcotest.(check bool) (Printf.sprintf "coverage %.2f" rate) true (rate > 0.85)

let test_top_k () =
  let m = Marginals.create () in
  Marginals.observe m (bag_of_rows [ r [ Value.Int 1 ]; r [ Value.Int 2 ] ]);
  Marginals.observe m (bag_of_rows [ r [ Value.Int 1 ]; r [ Value.Int 3 ] ]);
  Marginals.observe m (bag_of_rows [ r [ Value.Int 1 ] ]);
  let top = Confidence.top_k m 2 in
  Alcotest.(check int) "k results" 2 (List.length top);
  (match top with
  | (row, p) :: _ ->
    Alcotest.(check bool) "first is tuple 1" true (Row.equal row (r [ Value.Int 1 ]));
    feq "p=1" 1. p
  | [] -> Alcotest.fail "empty top-k");
  (* ties broken deterministically by row order *)
  match top with
  | [ _; (row2, _) ] -> Alcotest.(check bool) "tie broken to 2" true (Row.equal row2 (r [ Value.Int 2 ]))
  | _ -> Alcotest.fail "unexpected shape"


let test_topk_eval () =
  let _, _, pdb = build_graph_pdb ~seed:91 () in
  (* All four items have similar probabilities; k=4 covers every tuple so
     the ranking can separate from the empty 5th. *)
  let res = Topk_eval.evaluate pdb ~query:query_blue ~k:2 ~thin:7 in
  Alcotest.(check int) "two results" 2 (List.length res.Topk_eval.ranking);
  Alcotest.(check bool) "used samples" true (res.samples_used > 0);
  List.iter
    (fun (_, p) -> Alcotest.(check bool) "probability sane" true (p >= 0. && p <= 1.))
    res.ranking

let test_topk_eval_early_stop () =
  (* A strongly separated model: item 0 clamped blue by a huge bias, others
     strongly red. Early stopping should fire well before max_samples. *)
  let db = small_db () in
  let world = World.create db in
  let gp = Graph_pdb.create world in
  let vars = Array.init 4 (fun i -> Graph_pdb.bind gp (color_field i) color_domain) in
  let g = Graph_pdb.graph gp in
  ignore (Factorgraph.Graph.add_table_factor g ~scope:[| vars.(0) |] [| 0.; 6. |]);
  for i = 1 to 3 do
    ignore (Factorgraph.Graph.add_table_factor g ~scope:[| vars.(i) |] [| 4.; 0. |])
  done;
  let pdb = Graph_pdb.pdb gp ~rng:(Mcmc.Rng.create 92) in
  let res = Topk_eval.evaluate ~max_samples:1500 pdb ~query:query_blue ~k:1 ~thin:9 in
  Alcotest.(check bool) "separated" true res.Topk_eval.separated;
  Alcotest.(check bool) "stopped early" true (res.samples_used < 1500);
  match res.ranking with
  | [ (row, p) ] ->
    Alcotest.(check bool) "item 0 on top" true (Row.equal row (r [ Value.Int 0 ]));
    Alcotest.(check bool) "high probability" true (p > 0.9)
  | _ -> Alcotest.fail "expected exactly one tuple"


let test_adaptive_evaluator () =
  let _, _, pdb = build_graph_pdb ~seed:93 () in
  let rep = Adaptive.evaluate ~initial_thin:100 pdb ~query:query_blue ~samples:120 in
  Alcotest.(check int) "all samples observed" 121 (Marginals.samples rep.Adaptive.marginals);
  Alcotest.(check bool) "k stays in bounds" true
    (rep.final_thin >= 50 && rep.final_thin <= 50_000);
  Alcotest.(check bool) "trajectory recorded" true (List.length rep.thin_trajectory >= 1);
  (* Tiny graph, near-free queries: the controller should shrink k toward
     the floor rather than grow it. *)
  Alcotest.(check bool) "cheap queries shrink k" true (rep.final_thin <= 1_000)

(* Adaptive, Topk_eval and Evaluator.evaluate share one sample step
   (Evaluator.start/observe), so on the same seed they walk the same chain
   and fold the same answers: their marginals agree bit for bit. *)
let rows_bitwise a b =
  List.length a = List.length b
  && List.for_all2
       (fun (ra, pa) (rb, pb) ->
         Row.equal ra rb && Int64.equal (Int64.bits_of_float pa) (Int64.bits_of_float pb))
       a b

let estimates_bitwise msg a b =
  Alcotest.(check int) (msg ^ ": samples") (Marginals.samples a) (Marginals.samples b);
  if not (rows_bitwise (Marginals.estimates a) (Marginals.estimates b)) then
    Alcotest.failf "%s: estimates differ" msg

let test_adaptive_pinned_equals_evaluator () =
  let thin = 7 and samples = 60 in
  List.iter
    (fun strategy ->
      let name = Evaluator.strategy_name strategy in
      let _, _, pdb = build_graph_pdb ~seed:94 () in
      let rep =
        Adaptive.evaluate ~strategy ~k_min:thin ~k_max:thin ~initial_thin:thin pdb
          ~query:query_blue ~samples
      in
      let _, _, pdb' = build_graph_pdb ~seed:94 () in
      let m = Evaluator.evaluate strategy pdb' ~query:query_blue ~thin ~samples in
      Alcotest.(check int) (name ^ ": k pinned") thin rep.Adaptive.final_thin;
      Alcotest.(check int) (name ^ ": same walk") (Pdb.steps_taken pdb') (Pdb.steps_taken pdb);
      estimates_bitwise name m rep.Adaptive.marginals)
    [ Evaluator.Naive; Evaluator.Materialized ]

let test_topk_eval_matches_evaluator () =
  let _, _, pdb = build_graph_pdb ~seed:91 () in
  let res = Topk_eval.evaluate pdb ~query:query_blue ~k:2 ~thin:7 in
  let _, _, pdb' = build_graph_pdb ~seed:91 () in
  let m =
    Evaluator.evaluate Evaluator.Materialized pdb' ~query:query_blue ~thin:7
      ~samples:res.Topk_eval.samples_used
  in
  if not (rows_bitwise (Confidence.top_k m 2) res.ranking) then
    Alcotest.fail "Topk_eval ranking differs from Confidence.top_k of Evaluator.evaluate"

let () =
  Alcotest.run "core"
    [ ("world",
       [ Alcotest.test_case "write-through" `Quick test_world_write_through;
         Alcotest.test_case "noop" `Quick test_world_noop_write;
         Alcotest.test_case "coalesce" `Quick test_world_coalesce;
         Alcotest.test_case "unknown-field" `Quick test_world_unknown_field;
 ]);
      ("marginals",
       [ Alcotest.test_case "basic" `Quick test_marginals_basic;
         Alcotest.test_case "multiset-membership" `Quick test_marginals_multiset_membership;
         Alcotest.test_case "merge" `Quick test_marginals_merge;
         Alcotest.test_case "merge-unequal-counts" `Quick test_marginals_merge_unequal_counts;
         Alcotest.test_case "merge-shards" `Quick test_marginals_merge_shards;
         Alcotest.test_case "squared-error" `Quick test_marginals_squared_error;
         Alcotest.test_case "zero-samples" `Quick test_marginals_zero_samples ]);
      ("graph-pdb",
       [ Alcotest.test_case "write-through" `Quick test_graph_pdb_write_through;
         Alcotest.test_case "bind-errors" `Quick test_graph_pdb_bind_errors ]);
      ("evaluator",
       [ Alcotest.test_case "naive=materialized" `Quick test_naive_equals_materialized;
         Alcotest.test_case "matches-exact" `Slow test_mcmc_matches_exact_event;
         Alcotest.test_case "progress" `Quick test_progress_callback ]);
      ("aggregate", [ Alcotest.test_case "distribution" `Quick test_aggregate_distribution ]);
      ("confidence",
       [ Alcotest.test_case "wilson" `Quick test_confidence_wilson;
         Alcotest.test_case "coverage" `Quick test_confidence_interval_covers;
         Alcotest.test_case "top-k" `Quick test_top_k ]);
      ("adaptive",
       [ Alcotest.test_case "controller" `Quick test_adaptive_evaluator;
         Alcotest.test_case "pinned-k=evaluator" `Quick test_adaptive_pinned_equals_evaluator ]);
      ("top-k-eval",
       [ Alcotest.test_case "basic" `Quick test_topk_eval;
         Alcotest.test_case "early-stop" `Quick test_topk_eval_early_stop;
         Alcotest.test_case "ranking=evaluator" `Quick test_topk_eval_matches_evaluator ]) ]
