(* Tests for the tuple-independent baseline: lineage formulas, exact Shannon
   probabilities vs brute force, Monte Carlo, intensional query evaluation,
   and cross-validation against the factor-graph MCMC evaluator on a model
   both can express. *)

open Relational
open Tuplepdb

let r vs = Row.make vs

let feq ?(eps = 1e-9) msg a b =
  if abs_float (a -. b) > eps then Alcotest.failf "%s: expected %.12g, got %.12g" msg a b

(* ------------------------------------------------------------------ *)
(* Lineage *)

let test_lineage_simplification () =
  let open Lineage in
  Alcotest.(check bool) "conj units" true (conj [ Tru; var 1; Tru ] = var 1);
  Alcotest.(check bool) "conj absorbing" true (conj [ var 1; Fls ] = Fls);
  Alcotest.(check bool) "disj units" true (disj [ Fls; var 2 ] = var 2);
  Alcotest.(check bool) "disj absorbing" true (disj [ var 1; Tru ] = Tru);
  Alcotest.(check bool) "double negation" true (neg (neg (var 3)) = var 3);
  Alcotest.(check (list int)) "vars" [ 1; 2 ]
    (vars (conj [ var 1; disj [ var 2; var 1 ] ]))

(* Brute-force reference over all assignments of the formula's variables. *)
let brute_force probs f =
  let vs = Array.of_list (Lineage.vars f) in
  let n = Array.length vs in
  let total = ref 0. in
  for mask = 0 to (1 lsl n) - 1 do
    let env v =
      let rec idx i = if vs.(i) = v then i else idx (i + 1) in
      mask land (1 lsl idx 0) <> 0
    in
    if Lineage.eval env f then begin
      let w = ref 1. in
      Array.iteri
        (fun i v ->
          let p = probs v in
          w := !w *. if mask land (1 lsl i) <> 0 then p else 1. -. p)
        vs;
      total := !total +. !w
    end
  done;
  !total

let prop_exact_matches_brute_force =
  QCheck.Test.make ~name:"lineage: Shannon = brute force" ~count:100
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rand = Prng.of_seeds [| seed |] in
      let n_vars = 2 + Prng.int rand 6 in
      let probs = Array.init n_vars (fun _ -> Prng.float rand 1.) in
      (* Random monotone-ish formula with occasional negation. *)
      let rec gen depth =
        if depth = 0 || Prng.int rand 3 = 0 then
          Lineage.var (Prng.int rand n_vars)
        else
          match Prng.int rand 3 with
          | 0 -> Lineage.conj [ gen (depth - 1); gen (depth - 1) ]
          | 1 -> Lineage.disj [ gen (depth - 1); gen (depth - 1) ]
          | _ -> Lineage.neg (gen (depth - 1))
      in
      let f = gen 4 in
      let exact = Lineage.exact_probability (Array.get probs) f in
      abs_float (exact -. brute_force (Array.get probs) f) < 1e-9)

let test_lineage_monte_carlo () =
  let probs = function 0 -> 0.3 | 1 -> 0.6 | _ -> 0.5 in
  let f = Lineage.disj [ Lineage.var 0; Lineage.var 1 ] in
  let exact = Lineage.exact_probability probs f in
  let mc = Lineage.monte_carlo probs ~rng:(Prng.of_seeds [| 5 |]) ~samples:100_000 f in
  feq ~eps:0.01 "MC close to exact" exact mc

let test_lineage_budget () =
  (* A big parity-ish formula should blow the tiny budget. *)
  let f =
    Lineage.conj
      (List.init 30 (fun i ->
           Lineage.disj [ Lineage.var i; Lineage.neg (Lineage.var ((i + 1) mod 30)) ]))
  in
  match Lineage.exact_probability ~budget:10 (fun _ -> 0.5) f with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected budget failure"

(* ------------------------------------------------------------------ *)
(* Tipdb query evaluation *)

let item_schema () =
  Schema.make
    [ { Schema.name = "id"; ty = Value.T_int }; { Schema.name = "color"; ty = Value.T_text } ]

let small_tipdb () =
  let db = Tipdb.create () in
  Tipdb.add_table db ~name:"ITEM" (item_schema ())
    [ (r [ Value.Int 0; Value.Text "blue" ], 0.9);
      (r [ Value.Int 1; Value.Text "blue" ], 0.4);
      (r [ Value.Int 2; Value.Text "red" ], 0.7) ];
  db

let test_tipdb_selection () =
  let db = small_tipdb () in
  let q = Algebra.(select Expr.(col "color" = text "blue") (scan "ITEM")) in
  let ps = Tipdb.answer_probabilities db q in
  Alcotest.(check int) "two answers" 2 (List.length ps);
  feq "tuple keeps its probability" 0.9 (List.assoc (r [ Value.Int 0; Value.Text "blue" ]) ps)

let test_tipdb_projection_or () =
  let db = small_tipdb () in
  (* Projecting on color merges the two blue tuples: 1 − (1−0.9)(1−0.4). *)
  let q = Algebra.(project [ "color" ] (scan "ITEM")) in
  let ps = Tipdb.answer_probabilities db q in
  feq ~eps:1e-12 "independent OR" (1. -. (0.1 *. 0.6)) (List.assoc (r [ Value.Text "blue" ]) ps)

let test_tipdb_join_and () =
  let db = Tipdb.create () in
  let s1 = Schema.make [ { Schema.name = "a"; ty = Value.T_int } ] in
  let s2 =
    Schema.make [ { Schema.name = "b"; ty = Value.T_int }; { Schema.name = "c"; ty = Value.T_int } ]
  in
  Tipdb.add_table db ~name:"R" s1 [ (r [ Value.Int 1 ], 0.5) ];
  Tipdb.add_table db ~name:"S" s2 [ (r [ Value.Int 1; Value.Int 9 ], 0.8) ];
  let q = Algebra.(join Expr.(col "a" = col "b") (scan "R") (scan "S")) in
  let ps = Tipdb.answer_probabilities db q in
  feq ~eps:1e-12 "independent AND" 0.4 (snd (List.hd ps))

let test_tipdb_self_join_correlated_lineage () =
  (* The same base tuple used twice must NOT be squared: P(t ∧ t) = p. *)
  let db = small_tipdb () in
  let q =
    Algebra.(
      project [ "T1.id" ]
        (join
           Expr.(col "T1.id" = col "T2.id")
           (scan ~alias:"T1" "ITEM") (scan ~alias:"T2" "ITEM")))
  in
  let ps = Tipdb.answer_probabilities db q in
  feq ~eps:1e-12 "self-join keeps p, not p²" 0.4 (List.assoc (r [ Value.Int 1 ]) ps)

let test_tipdb_rejects_aggregates () =
  let db = small_tipdb () in
  let q = Algebra.count_star (Algebra.scan "ITEM") in
  match Tipdb.answer_probabilities db q with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "aggregates must be rejected (that is the point)"

let test_tipdb_union () =
  let db = small_tipdb () in
  let blue = Algebra.(project [ "id" ] (select Expr.(col "color" = text "blue") (scan "ITEM"))) in
  let red = Algebra.(project [ "id" ] (select Expr.(col "color" = text "red") (scan "ITEM"))) in
  let ps = Tipdb.answer_probabilities db (Algebra.Union (blue, red)) in
  Alcotest.(check int) "three answers" 3 (List.length ps)

(* ------------------------------------------------------------------ *)
(* Cross-validation: when the factor graph is fully independent, the two
   systems must agree. *)

let test_tipdb_agrees_with_mcmc_when_independent () =
  let probs = [| 0.85; 0.35; 0.6; 0.15 |] in
  (* Tuple-independent side: tuples (id) present with prob p_i; query = all
     present ids. *)
  let tdb = Tipdb.create () in
  let schema = Schema.make [ { Schema.name = "id"; ty = Value.T_int } ] in
  Tipdb.add_table tdb ~name:"T" schema
    (List.init 4 (fun i -> (r [ Value.Int i ], probs.(i))));
  let exact = Tipdb.answer_probabilities tdb (Algebra.scan "T") in
  (* Factor-graph side: presence as a boolean field with a bias factor of
     log-odds(p_i); query selects present tuples. *)
  let db = Database.create () in
  let fg_schema =
    Schema.make
      [ { Schema.name = "id"; ty = Value.T_int };
        { Schema.name = "present"; ty = Value.T_text } ]
  in
  let table = Database.create_table db ~pk:"id" ~name:"T" fg_schema in
  for i = 0 to 3 do
    Table.insert table (r [ Value.Int i; Value.Text "false" ])
  done;
  let world = Core.World.create db in
  let gp = Core.Graph_pdb.create world in
  let dom = Factorgraph.Domain.boolean in
  for i = 0 to 3 do
    let v =
      Core.Graph_pdb.bind gp
        (Core.Field.make ~table:"T" ~key:(Value.Int i) ~column:"present")
        dom
    in
    let logodds = log (probs.(i) /. (1. -. probs.(i))) in
    ignore (Factorgraph.Graph.add_table_factor (Core.Graph_pdb.graph gp) ~scope:[| v |] [| 0.; logodds |])
  done;
  let pdb = Core.Graph_pdb.pdb gp ~rng:(Mcmc.Rng.create 404) in
  let q = Sql.parse "SELECT id FROM T WHERE present='true'" in
  let m = Core.Evaluator.evaluate Core.Evaluator.Materialized pdb ~query:q ~thin:9 ~samples:30_000 in
  List.iteri
    (fun i (_, p_exact) ->
      let p_mcmc = Core.Marginals.probability m (r [ Value.Int i ]) in
      feq ~eps:0.02 (Printf.sprintf "tuple %d" i) p_exact p_mcmc)
    exact

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "tuplepdb"
    [ ("lineage",
       [ Alcotest.test_case "simplification" `Quick test_lineage_simplification;
         qc prop_exact_matches_brute_force;
         Alcotest.test_case "monte-carlo" `Slow test_lineage_monte_carlo;
         Alcotest.test_case "budget" `Quick test_lineage_budget ]);
      ("tipdb",
       [ Alcotest.test_case "selection" `Quick test_tipdb_selection;
         Alcotest.test_case "projection-or" `Quick test_tipdb_projection_or;
         Alcotest.test_case "join-and" `Quick test_tipdb_join_and;
         Alcotest.test_case "self-join-lineage" `Quick test_tipdb_self_join_correlated_lineage;
         Alcotest.test_case "rejects-aggregates" `Quick test_tipdb_rejects_aggregates;
         Alcotest.test_case "union" `Quick test_tipdb_union ]);
      ("cross-validation",
       [ Alcotest.test_case "agrees-with-mcmc" `Slow test_tipdb_agrees_with_mcmc_when_independent ]) ]
