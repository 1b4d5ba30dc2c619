(* Tests for the relational substrate: values, schemas, bags, tables,
   expressions, evaluation, SQL parsing, and — most importantly — the
   incremental-view-maintenance = full-requery property that the paper's
   Algorithm 1 relies on. *)

open Relational

let value = Alcotest.testable Value.pp Value.equal

(* A bag holding each listed row once per occurrence. *)
let bag_of_rows rows =
  let b = Bag.create () in
  List.iter (Bag.add b) rows;
  b

(* Same multiplicity for every row. *)
let bag_equal a b =
  List.equal
    (fun (ra, ca) (rb, cb) -> Row.equal ra rb && Int.equal ca cb)
    (Bag.to_list a) (Bag.to_list b)

let pp_bag fmt b =
  Format.fprintf fmt "{";
  List.iter (fun (r, c) -> Format.fprintf fmt " %s:%d" (Row.to_string r) c) (Bag.to_list b);
  Format.fprintf fmt " }"

(* Parse then fully evaluate. *)
let run_sql db src = Eval.eval db (Sql.parse src)

let check_bag msg expected actual =
  if not (bag_equal expected actual) then
    Alcotest.failf "%s:@.expected %s@.got      %s" msg
      (Format.asprintf "%a" pp_bag expected)
      (Format.asprintf "%a" pp_bag actual)

(* ------------------------------------------------------------------ *)
(* Value *)

let test_value_compare () =
  Alcotest.(check int) "int eq" 0 (Value.compare (Int 3) (Int 3));
  Alcotest.(check bool) "int/float cross" true (Value.equal (Int 3) (Float 3.));
  Alcotest.(check bool) "null sorts first" true (Value.compare Null (Int (-100)) < 0);
  Alcotest.(check bool) "text order" true (Value.compare (Text "a") (Text "b") < 0);
  Alcotest.(check bool) "bool < int" true (Value.compare (Bool true) (Int 0) < 0)

let test_value_hash_consistent () =
  Alcotest.(check bool) "Int/Float hash agree" true
    (Value.hash (Int 7) = Value.hash (Float 7.));
  (* Compare-equal values must hash equal: every NaN payload, -0. vs +0.,
     and the Int/Float crossover — these are exactly the keys a keyed
     hashtable (Row.Tbl, Key_index) would otherwise split into two groups. *)
  let nan_payload = Int64.float_of_bits 0x7FF0000000000001L in
  Alcotest.(check int) "NaNs compare equal" 0
    (Value.compare (Float nan) (Float nan_payload));
  Alcotest.(check bool) "NaNs hash equal" true
    (Value.hash (Float nan) = Value.hash (Float nan_payload));
  Alcotest.(check int) "-0. compares equal to +0." 0
    (Value.compare (Float (-0.)) (Float 0.));
  Alcotest.(check bool) "-0. hashes like +0." true
    (Value.hash (Float (-0.)) = Value.hash (Float 0.));
  Alcotest.(check bool) "Int 0 hashes like Float -0." true
    (Value.hash (Int 0) = Value.hash (Float (-0.)))

let test_value_arith () =
  Alcotest.check value "int add" (Int 7) (Value.add (Int 3) (Int 4));
  Alcotest.check value "mixed mul" (Float 7.5) (Value.mul (Int 3) (Float 2.5));
  Alcotest.check value "null absorbs" Null (Value.add Null (Int 1))

let prop_value_hash_equal =
  QCheck.Test.make ~name:"value: equal implies same hash" ~count:500
    QCheck.(pair (int_range (-20) 20) (int_range (-20) 20))
    (fun (a, b) ->
      let va = Value.Int a and vb = Value.Float (float_of_int b) in
      (not (Value.equal va vb)) || Value.hash va = Value.hash vb)

(* ------------------------------------------------------------------ *)
(* Schema *)

let schema_abc () =
  Schema.make
    [ { Schema.name = "a"; ty = Value.T_int };
      { Schema.name = "b"; ty = Value.T_text };
      { Schema.name = "c"; ty = Value.T_float } ]

let test_schema_lookup () =
  let s = schema_abc () in
  Alcotest.(check int) "b at 1" 1 (Schema.index_of s "b");
  Alcotest.check_raises "absent" Not_found (fun () -> ignore (Schema.index_of s "z"))

let test_schema_qualify () =
  let s = Schema.qualify "T" (schema_abc ()) in
  Alcotest.(check int) "qualified exact" 0 (Schema.index_of s "T.a");
  Alcotest.(check int) "bare resolves" 2 (Schema.index_of s "c")

let test_schema_ambiguous () =
  let s = Schema.concat (Schema.qualify "T1" (schema_abc ())) (Schema.qualify "T2" (schema_abc ())) in
  Alcotest.(check int) "qualified ok" 4 (Schema.index_of s "T2.b");
  Alcotest.check_raises "bare ambiguous" (Schema.Ambiguous_column "a")
    (fun () -> ignore (Schema.index_of s "a"))

(* An ambiguous bare name raises its own exception, distinct from the
   [Not_found] of an absent one; qualifying it resolves. *)
let test_schema_mem_ambiguous () =
  let s =
    Schema.concat (Schema.qualify "T1" (schema_abc ())) (Schema.qualify "T2" (schema_abc ()))
  in
  Alcotest.(check int) "qualified resolves" 0 (Schema.index_of s "T1.a");
  Alcotest.check_raises "absent" Not_found (fun () -> ignore (Schema.index_of s "z"));
  Alcotest.check_raises "index_of reports ambiguity" (Schema.Ambiguous_column "b")
    (fun () -> ignore (Schema.index_of s "b"))

let test_schema_project () =
  let s = Schema.qualify "T" (schema_abc ()) in
  let p, pos = Schema.project s [ "b"; "T.a" ] in
  Alcotest.(check (list string)) "names bare" [ "b"; "a" ] (Schema.names p);
  Alcotest.(check (array int)) "positions" [| 1; 0 |] pos

(* ------------------------------------------------------------------ *)
(* Bag *)

let r vs = Row.make vs

let test_bag_counts () =
  let b = Bag.create () in
  Bag.add b (r [ Int 1 ]);
  Bag.add ~count:2 b (r [ Int 1 ]);
  Alcotest.(check int) "count 3" 3 (Bag.count b (r [ Int 1 ]));
  Bag.remove ~count:3 b (r [ Int 1 ]);
  Alcotest.(check bool) "empty after cancel" true (Bag.is_empty b)

let test_bag_signed () =
  let b = Bag.create () in
  Bag.remove b (r [ Int 5 ]);
  Alcotest.(check int) "negative count" (-1) (Bag.count b (r [ Int 5 ]));
  Bag.add b (r [ Int 5 ]);
  Alcotest.(check bool) "cancelled" true (Bag.is_empty b)

let test_bag_map_rows () =
  let b = bag_of_rows [ r [ Int 1; Text "x" ]; r [ Int 2; Text "x" ] ] in
  let projected = Bag.map_rows (fun row -> [| Row.get row 1 |]) b in
  Alcotest.(check int) "duplicates summed" 2 (Bag.count projected (r [ Text "x" ]))

let prop_bag_add_bag_assoc =
  QCheck.Test.make ~name:"bag: add_bag then subtract restores" ~count:200
    QCheck.(list (pair (int_range 0 5) (int_range (-3) 3)))
    (fun entries ->
      let a = Bag.create () and b = Bag.create () in
      List.iter (fun (v, c) -> Bag.add ~count:c b (r [ Int v ])) entries;
      let before = Bag.copy a in
      Bag.add_bag a b;
      Bag.add_bag ~scale:(-1) a b;
      bag_equal before a)

(* ------------------------------------------------------------------ *)
(* Table *)

let token_schema () =
  Schema.make
    [ { Schema.name = "tok_id"; ty = Value.T_int };
      { Schema.name = "doc_id"; ty = Value.T_int };
      { Schema.name = "string"; ty = Value.T_text };
      { Schema.name = "label"; ty = Value.T_text } ]

let mk_token_table ?(name = "TOKEN") rows =
  let t = Table.create ~pk:"tok_id" ~name (token_schema ()) in
  List.iter (fun (id, doc, s, l) -> Table.insert t (r [ Int id; Int doc; Text s; Text l ])) rows;
  t

let test_table_pk_update () =
  let t = mk_token_table [ (1, 1, "IBM", "O"); (2, 1, "said", "O") ] in
  let old_row, new_row = Table.update_field_by_pk t (Int 1) ~column:"label" (Text "B-ORG") in
  Alcotest.check value "old label" (Text "O") (Row.get old_row 3);
  Alcotest.check value "new label" (Text "B-ORG") (Row.get new_row 3);
  Alcotest.(check int) "cardinality stable" 2 (Table.cardinal t);
  match Table.find_by_pk t (Int 1) with
  | None -> Alcotest.fail "row vanished"
  | Some row -> Alcotest.check value "stored" (Text "B-ORG") (Row.get row 3)

let test_table_duplicate_pk () =
  let t = mk_token_table [ (1, 1, "a", "O") ] in
  Alcotest.check_raises "duplicate pk"
    (Invalid_argument "Table.insert(TOKEN): duplicate key 1")
    (fun () -> Table.insert t (r [ Int 1; Int 2; Text "b"; Text "O" ]))

let test_table_index () =
  let t = mk_token_table [ (1, 1, "IBM", "O"); (2, 1, "IBM", "O"); (3, 2, "saw", "O") ] in
  Table.create_index t "string";
  Alcotest.(check int) "two IBMs" 2 (Bag.total (Table.lookup t ~column:"string" (Text "IBM")));
  ignore (Table.update_field_by_pk t (Int 2) ~column:"string" (Text "Apple"));
  Alcotest.(check int) "index follows update" 1
    (Bag.total (Table.lookup t ~column:"string" (Text "IBM")));
  Alcotest.(check int) "new entry" 1 (Bag.total (Table.lookup t ~column:"string" (Text "Apple")))

(* ------------------------------------------------------------------ *)
(* Expr *)

let test_expr_pred () =
  let s = token_schema () in
  let p = Expr.(col "label" = text "B-PER" && col "doc_id" > int 1) in
  let f = Expr.bind_pred s p in
  Alcotest.(check bool) "match" true (f (r [ Int 1; Int 2; Text "x"; Text "B-PER" ]));
  Alcotest.(check bool) "label mismatch" false (f (r [ Int 1; Int 2; Text "x"; Text "O" ]));
  Alcotest.(check bool) "doc mismatch" false (f (r [ Int 1; Int 1; Text "x"; Text "B-PER" ]))

let test_expr_equi_join () =
  let left = Schema.qualify "T1" (token_schema ()) in
  let right = Schema.qualify "T2" (token_schema ()) in
  let p = Expr.(col "T1.doc_id" = col "T2.doc_id" && col "T2.label" = text "B-PER") in
  match Expr.equi_join_pairs p ~left ~right with
  | None -> Alcotest.fail "expected equi pairs"
  | Some (pairs, residual) ->
    Alcotest.(check (list (pair int int))) "pair" [ (1, 1) ] pairs;
    Alcotest.(check bool) "has residual" true (residual <> None)

(* ------------------------------------------------------------------ *)
(* Eval on a hand-built database *)

let sample_db () =
  let db = Database.create () in
  let t =
    mk_token_table
      [ (1, 1, "Bill", "B-PER"); (2, 1, "saw", "O"); (3, 1, "IBM", "B-ORG");
        (4, 2, "Boston", "B-ORG"); (5, 2, "Ramirez", "B-PER"); (6, 2, "played", "O");
        (7, 3, "Boston", "B-LOC"); (8, 3, "rained", "O") ]
  in
  Database.add_table db t;
  db

let test_eval_select_project () =
  let db = sample_db () in
  let q = Algebra.(project [ "string" ] (select Expr.(col "label" = text "B-PER") (scan "TOKEN"))) in
  let res = Eval.eval db q in
  check_bag "strings of B-PER" (bag_of_rows [ r [ Text "Bill" ]; r [ Text "Ramirez" ] ]) res.bag

let test_eval_projection_multiset () =
  let db = sample_db () in
  let q = Algebra.(project [ "label" ] (scan "TOKEN")) in
  let res = Eval.eval db q in
  Alcotest.(check int) "three O rows" 3 (Bag.count res.bag (r [ Text "O" ]));
  Alcotest.(check int) "total preserved" 8 (Bag.total res.bag)

let test_eval_count () =
  let db = sample_db () in
  let q = Algebra.(count_star (select Expr.(col "label" = text "B-PER") (scan "TOKEN"))) in
  let res = Eval.eval db q in
  check_bag "count 2" (bag_of_rows [ r [ Int 2 ] ]) res.bag

let test_eval_count_empty () =
  let db = sample_db () in
  let q = Algebra.(count_star (select Expr.(col "label" = text "B-XYZ") (scan "TOKEN"))) in
  let res = Eval.eval db q in
  check_bag "count 0 row present" (bag_of_rows [ r [ Int 0 ] ]) res.bag

let test_eval_group_by () =
  let db = sample_db () in
  let q =
    Algebra.group_by [ "doc_id" ]
      [ { Algebra.agg = Count_star; as_name = "n" } ]
      (Algebra.scan "TOKEN")
  in
  let res = Eval.eval db q in
  check_bag "per-doc counts"
    (bag_of_rows [ r [ Int 1; Int 3 ]; r [ Int 2; Int 3 ]; r [ Int 3; Int 2 ] ])
    res.bag

let test_eval_join () =
  let db = sample_db () in
  (* Query 4 shape: persons co-occurring with Boston as ORG *)
  let p =
    Expr.(
      col "T1.string" = text "Boston" && col "T1.label" = text "B-ORG"
      && col "T1.doc_id" = col "T2.doc_id" && col "T2.label" = text "B-PER")
  in
  let q =
    Algebra.(
      project [ "T2.string" ]
        (select p (Product (scan ~alias:"T1" "TOKEN", scan ~alias:"T2" "TOKEN"))))
  in
  let res = Eval.eval db (Optimizer.optimize q) in
  check_bag "Ramirez" (bag_of_rows [ r [ Text "Ramirez" ] ]) res.bag

let test_eval_min_max_avg () =
  let db = sample_db () in
  let q =
    Algebra.group_by [ "doc_id" ]
      [ { Algebra.agg = Min "tok_id"; as_name = "lo" };
        { Algebra.agg = Max "tok_id"; as_name = "hi" };
        { Algebra.agg = Avg "tok_id"; as_name = "mid" } ]
      (Algebra.scan "TOKEN")
  in
  let res = Eval.eval db q in
  check_bag "min/max/avg"
    (bag_of_rows
       [ r [ Int 1; Int 1; Int 3; Float 2. ];
         r [ Int 2; Int 4; Int 6; Float 5. ];
         r [ Int 3; Int 7; Int 8; Float 7.5 ] ])
    res.bag

let test_eval_count_join () =
  let db = sample_db () in
  (* Query 3 shape: docs where #B-PER = #B-ORG *)
  let sub label =
    Algebra.(select Expr.(col "label" = text label) (scan "TOKEN"))
  in
  let q =
    Algebra.(
      project [ "doc_id" ]
        (select
           Expr.(col "n_per" = col "n_org")
           (Count_join
              { child =
                  Count_join
                    { child = scan "TOKEN"; key = "doc_id"; sub = sub "B-PER";
                      sub_key = "doc_id"; as_name = "n_per" };
                key = "doc_id"; sub = sub "B-ORG"; sub_key = "doc_id"; as_name = "n_org" })))
  in
  let res = Eval.eval db q in
  (* doc 1: 1 PER, 1 ORG -> qualifies (3 tokens); doc 2: 1 PER 1 ORG (3 tokens);
     doc 3: 0 PER, 0 ORG -> qualifies (2 tokens). *)
  let expected = Bag.create () in
  Bag.add ~count:3 expected (r [ Int 1 ]);
  Bag.add ~count:3 expected (r [ Int 2 ]);
  Bag.add ~count:2 expected (r [ Int 3 ]);
  check_bag "docs with equal counts" expected res.bag

let test_eval_distinct_union_diff () =
  let db = sample_db () in
  let labels = Algebra.(project [ "label" ] (scan "TOKEN")) in
  let d = Eval.eval db (Algebra.Distinct labels) in
  Alcotest.(check int) "distinct labels" 4 (Bag.total d.bag);
  let u = Eval.eval db (Algebra.Union (labels, labels)) in
  Alcotest.(check int) "union doubles" 16 (Bag.total u.bag);
  let m = Eval.eval db (Algebra.Diff (Algebra.Union (labels, labels), labels)) in
  Alcotest.(check int) "monus halves" 8 (Bag.total m.bag)

(* ------------------------------------------------------------------ *)
(* SQL *)

let test_sql_query1 () =
  let db = sample_db () in
  let res = run_sql db "SELECT STRING FROM TOKEN WHERE LABEL='B-PER'" in
  check_bag "query 1" (bag_of_rows [ r [ Text "Bill" ]; r [ Text "Ramirez" ] ]) res.bag

let test_sql_query2 () =
  let db = sample_db () in
  let res = run_sql db "SELECT COUNT(*) FROM TOKEN WHERE LABEL='B-PER'" in
  check_bag "query 2" (bag_of_rows [ r [ Int 2 ] ]) res.bag

let test_sql_query3 () =
  let db = sample_db () in
  let res =
    run_sql db
      "SELECT T.doc_id FROM TOKEN T WHERE (SELECT COUNT(*) FROM TOKEN T1 WHERE \
       T1.label='B-PER' AND T.doc_id=T1.doc_id) = (SELECT COUNT(*) FROM TOKEN T1 WHERE \
       T1.label='B-ORG' AND T.doc_id=T1.doc_id)"
  in
  let expected = Bag.create () in
  Bag.add ~count:3 expected (r [ Int 1 ]);
  Bag.add ~count:3 expected (r [ Int 2 ]);
  Bag.add ~count:2 expected (r [ Int 3 ]);
  check_bag "query 3" expected res.bag

let test_sql_query4 () =
  let db = sample_db () in
  let res =
    run_sql db
      "SELECT T2.STRING FROM TOKEN T1, TOKEN T2 WHERE T1.STRING='Boston' AND \
       T1.LABEL='B-ORG' AND T1.DOC_ID=T2.DOC_ID AND T2.LABEL='B-PER'"
  in
  check_bag "query 4" (bag_of_rows [ r [ Text "Ramirez" ] ]) res.bag

let test_sql_group_by () =
  let db = sample_db () in
  let res = run_sql db "SELECT doc_id, COUNT(*) AS n FROM TOKEN GROUP BY doc_id" in
  check_bag "group by"
    (bag_of_rows [ r [ Int 1; Int 3 ]; r [ Int 2; Int 3 ]; r [ Int 3; Int 2 ] ])
    res.bag

let test_sql_join_becomes_hash () =
  (* The optimizer should turn the Query-4 product into a Join node. *)
  let q =
    Sql.parse
      "SELECT T2.STRING FROM TOKEN T1, TOKEN T2 WHERE T1.STRING='Boston' AND \
       T1.DOC_ID=T2.DOC_ID"
  in
  let rec has_join = function
    | Algebra.Join _ -> true
    | Scan _ -> false
    | Select (_, c) | Project (_, c) | Distinct c -> has_join c
    | Product (a, b) | Union (a, b) | Diff (a, b) -> has_join a || has_join b
    | Group_by { child; _ } -> has_join child
    | Count_join { child; sub; _ } -> has_join child || has_join sub
    | Order_by { child; _ } -> has_join child
  in
  Alcotest.(check bool) "join introduced" true (has_join q)

let test_sql_errors () =
  List.iter
    (fun src ->
      match Sql.parse src with
      | exception Sql.Parse_error _ -> ()
      | _ -> Alcotest.failf "expected parse error for %s" src)
    [ "SELECT"; "SELECT * FROM"; "SELECT * FROM T WHERE"; "FROM T";
      "SELECT * FROM T WHERE a="; "SELECT * FROM T extra tokens here now" ]

(* ------------------------------------------------------------------ *)
(* Incremental view maintenance: the central property.  Random updates to a
   TOKEN table must leave every materialized view identical to a fresh
   evaluation. *)

let labels_pool = [| "B-PER"; "I-PER"; "B-ORG"; "I-ORG"; "B-LOC"; "O" |]
let strings_pool = [| "Bill"; "IBM"; "Boston"; "saw"; "the"; "Ramirez"; "corp" |]

let random_db rand n_tokens n_docs =
  let db = Database.create () in
  let t = Table.create ~pk:"tok_id" ~name:"TOKEN" (token_schema ()) in
  for i = 1 to n_tokens do
    Table.insert t
      (r
         [ Int i; Int (1 + Prng.int rand n_docs);
           Text strings_pool.(Prng.int rand (Array.length strings_pool));
           Text labels_pool.(Prng.int rand (Array.length labels_pool)) ])
  done;
  Database.add_table db t;
  db

let view_queries () =
  let sub label = Algebra.(select Expr.(col "label" = text label) (scan "TOKEN")) in
  [ ("q1-select-project",
     Algebra.(project [ "string" ] (select Expr.(col "label" = text "B-PER") (scan "TOKEN"))));
    ("q2-count", Algebra.(count_star (select Expr.(col "label" = text "B-PER") (scan "TOKEN"))));
    ("q3-countjoin",
     Algebra.(
       project [ "doc_id" ]
         (select
            Expr.(col "n_per" = col "n_org")
            (Count_join
               { child =
                   Count_join
                     { child = scan "TOKEN"; key = "doc_id"; sub = sub "B-PER";
                       sub_key = "doc_id"; as_name = "n_per" };
                 key = "doc_id"; sub = sub "B-ORG"; sub_key = "doc_id"; as_name = "n_org" }))));
    ("q4-self-join",
     Sql.parse
       "SELECT T2.STRING FROM TOKEN T1, TOKEN T2 WHERE T1.STRING='Boston' AND \
        T1.LABEL='B-ORG' AND T1.DOC_ID=T2.DOC_ID AND T2.LABEL='B-PER'");
    ("group-by-doc", Sql.parse "SELECT doc_id, COUNT(*) AS n FROM TOKEN GROUP BY doc_id");
    ("distinct-strings",
     Algebra.(Distinct (project [ "string" ] (select Expr.(col "label" = text "B-PER") (scan "TOKEN")))));
    ("min-max",
     Algebra.group_by [ "doc_id" ]
       [ { Algebra.agg = Min "tok_id"; as_name = "lo" };
         { Algebra.agg = Max "tok_id"; as_name = "hi" } ]
       (Algebra.select Expr.(Algebra.(ignore scan; col "label" <> text "O")) (Algebra.scan "TOKEN")));
    ("union",
     Algebra.(
       Union
         ( project [ "string" ] (select Expr.(col "label" = text "B-PER") (scan "TOKEN")),
           project [ "string" ] (select Expr.(col "label" = text "B-ORG") (scan "TOKEN")) )));
    ("diff-recompute",
     Algebra.(
       Diff
         ( project [ "string" ] (scan "TOKEN"),
           project [ "string" ] (select Expr.(col "label" = text "O") (scan "TOKEN")) ))) ]

let apply_random_updates rand db delta n =
  let t = Database.table db "TOKEN" in
  let n_tokens = Table.cardinal t in
  for _ = 1 to n do
    let id = 1 + Prng.int rand n_tokens in
    let label = labels_pool.(Prng.int rand (Array.length labels_pool)) in
    let old_row, new_row = Table.update_field_by_pk t (Int id) ~column:"label" (Text label) in
    Delta.record_update delta ~table:"TOKEN" ~old_row ~new_row
  done

let test_view_matches_full_eval () =
  let rand = Prng.of_seeds [| 42 |] in
  List.iter
    (fun (name, q) ->
      let db = random_db rand 120 6 in
      let view = View.create db q in
      for batch = 1 to 12 do
        let delta = Delta.create () in
        apply_random_updates rand db delta (1 + Prng.int rand 20);
        View.update view delta;
        let fresh = Eval.eval db q in
        if not (bag_equal fresh.Eval.bag (View.result view)) then
          Alcotest.failf "view %s diverged at batch %d:@.fresh %s@.view  %s" name batch
            (Format.asprintf "%a" pp_bag fresh.Eval.bag)
            (Format.asprintf "%a" pp_bag (View.result view))
      done)
    (view_queries ())

let prop_view_maintenance =
  QCheck.Test.make ~name:"view: incremental equals full re-evaluation" ~count:25
    QCheck.(pair small_nat (small_list (pair small_nat small_nat)))
    (fun (seed, batches) ->
      let rand = Prng.of_seeds [| seed; 101 |] in
      let db = random_db rand 40 4 in
      let q =
        Algebra.(
          group_by [ "doc_id" ]
            [ { Algebra.agg = Count_star; as_name = "n" } ]
            (select Expr.(col "label" <> text "O") (scan "TOKEN")))
      in
      let view = View.create db q in
      List.for_all
        (fun (a, b) ->
          let delta = Delta.create () in
          apply_random_updates rand db delta (1 + ((a + b) mod 15));
          View.update view delta;
          bag_equal (Eval.eval db q).Eval.bag (View.result view))
        batches)

(* ------------------------------------------------------------------ *)
(* Indexed incremental maintenance: mixed DML, richer plan shapes, and the
   zero-re-evaluation guarantee of the indexed join path. *)

let fresh_tok_id = ref 1_000_000

let pick_existing_row rand t =
  let rows = Bag.fold (fun row _ acc -> row :: acc) (Table.rows t) [] in
  List.nth rows (Prng.int rand (List.length rows))

(* R1's motivating hot path: the indexed K_join delta kernel probes
   Key_index tables keyed by Row.hash/Row.equal. Pin it to a from-scratch
   nested loop driven purely by Value.compare, over bags whose join keys
   include NaN, Null, and Int/Float pairs that Value.equal unifies — the
   keys a polymorphic hashtable would split or crash on. *)
let join_key_pool =
  [| Value.Int 1; Value.Float 1.; Value.Int 2; Value.Float 2.5;
     Value.Float nan; Value.Float (-0.); Value.Null; Value.Text "k" |]

let prop_indexed_join_delta =
  QCheck.Test.make ~name:"view: indexed join delta equals nested-loop rebuild"
    ~count:40
    QCheck.(pair small_nat (small_list small_nat))
    (fun (seed, batches) ->
      let rand = Prng.of_seeds [| seed; 733 |] in
      let key () = join_key_pool.(Prng.int rand (Array.length join_key_pool)) in
      let db = Database.create () in
      let schema_of cols =
        Schema.make (List.map (fun (n, ty) -> { Schema.name = n; ty }) cols)
      in
      let lt = Table.create ~name:"L" (schema_of [ ("lid", Value.T_int); ("k", Value.T_float) ]) in
      let rt = Table.create ~name:"R" (schema_of [ ("rid", Value.T_int); ("kk", Value.T_float) ]) in
      for i = 1 to 8 do
        Table.insert lt (r [ Int i; key () ]);
        Table.insert rt (r [ Int (100 + i); key () ])
      done;
      Database.add_table db lt;
      Database.add_table db rt;
      let pred = Expr.(col "k" = col "kk") in
      let view = View.create db Algebra.(join pred (scan "L") (scan "R")) in
      let nested_reference () =
        let keep = Expr.bind_pred (Schema.concat (Table.schema lt) (Table.schema rt)) pred in
        let out = Bag.create () in
        Bag.iter
          (fun ra ca ->
            Bag.iter
              (fun rb cb ->
                let joined = Row.append ra rb in
                if keep joined then Bag.add ~count:(ca * cb) out joined)
              (Table.rows rt))
          (Table.rows lt);
        out
      in
      List.for_all
        (fun n ->
          let delta = Delta.create () in
          for _ = 1 to 1 + (n mod 5) do
            let t, name = if Prng.bool rand then (lt, "L") else (rt, "R") in
            if Prng.bool rand || Table.cardinal t = 0 then begin
              let row = r [ Int (Prng.int rand 1000); key () ] in
              Table.insert t row;
              Delta.record_insert delta ~table:name row
            end
            else begin
              let row = pick_existing_row rand t in
              Table.delete t row;
              Delta.record_delete delta ~table:name row
            end
          done;
          View.update view delta;
          bag_equal (nested_reference ()) (View.result view))
        batches)

(* A mixed insert/delete/update workload, each operation recorded in the
   delta exactly as Core.World would record it. *)
let apply_random_dml rand db delta n =
  let t = Database.table db "TOKEN" in
  for _ = 1 to n do
    match Prng.int rand 4 with
    | 0 ->
      incr fresh_tok_id;
      let row =
        r
          [ Int !fresh_tok_id; Int (1 + Prng.int rand 6);
            Text strings_pool.(Prng.int rand (Array.length strings_pool));
            Text labels_pool.(Prng.int rand (Array.length labels_pool)) ]
      in
      Table.insert t row;
      Delta.record_insert delta ~table:"TOKEN" row
    | 1 when Table.cardinal t > 10 ->
      let row = pick_existing_row rand t in
      Table.delete t row;
      Delta.record_delete delta ~table:"TOKEN" row
    | _ ->
      let row = pick_existing_row rand t in
      let label = labels_pool.(Prng.int rand (Array.length labels_pool)) in
      let old_row, new_row =
        Table.update_field_by_pk t (Row.get row 0) ~column:"label" (Text label)
      in
      Delta.record_update delta ~table:"TOKEN" ~old_row ~new_row
  done

let mixed_view_queries () =
  view_queries ()
  @ [ ("equi-join-residual",
       Sql.parse
         "SELECT T1.TOK_ID FROM TOKEN T1, TOKEN T2 WHERE T1.DOC_ID=T2.DOC_ID AND \
          T1.TOK_ID < T2.TOK_ID AND T2.LABEL='B-PER'");
      ("non-equi-join",
       Sql.parse
         "SELECT T1.TOK_ID FROM TOKEN T1, TOKEN T2 WHERE T1.TOK_ID < T2.TOK_ID AND \
          T1.LABEL='B-PER' AND T2.LABEL='B-ORG'") ]

let test_view_mixed_dml_matches_full_eval () =
  let rand = Prng.of_seeds [| 2024 |] in
  List.iter
    (fun (name, q) ->
      let db = random_db rand 100 6 in
      let view = View.create db q in
      for batch = 1 to 10 do
        let delta = Delta.create () in
        apply_random_dml rand db delta (1 + Prng.int rand 12);
        View.update view delta;
        let fresh = Eval.eval db q in
        if not (bag_equal fresh.Eval.bag (View.result view)) then
          Alcotest.failf "view %s diverged at batch %d:@.fresh %s@.view  %s" name batch
            (Format.asprintf "%a" pp_bag fresh.Eval.bag)
            (Format.asprintf "%a" pp_bag (View.result view))
      done)
    (mixed_view_queries ())

(* δR⋈δS corner: a single batch changes both sides of a self-join; without
   the correction term the common rows would be double-counted. *)
let test_view_join_delta_both_sides () =
  let db = Database.create () in
  let t = mk_token_table [ (1, 1, "a", "B-ORG"); (2, 1, "b", "B-PER"); (3, 1, "c", "O") ] in
  Database.add_table db t;
  let q =
    Algebra.(
      Join
        ( Expr.(col "T1.doc_id" = col "T2.doc_id"),
          scan ~alias:"T1" "TOKEN", scan ~alias:"T2" "TOKEN" ))
  in
  let view = View.create db q in
  let delta = Delta.create () in
  let old_row, new_row = Table.update_field_by_pk t (Int 3) ~column:"label" (Text "B-LOC") in
  Delta.record_update delta ~table:"TOKEN" ~old_row ~new_row;
  let old_row, new_row = Table.update_field_by_pk t (Int 1) ~column:"string" (Text "a'") in
  Delta.record_update delta ~table:"TOKEN" ~old_row ~new_row;
  View.update view delta;
  check_bag "self-join after both-sides batch" (Eval.eval db q).Eval.bag (View.result view)

let sum_relop_evals () =
  List.fold_left
    (fun acc (name, v) ->
      match v with
      | Obs.Metrics.Counter n
        when String.length name > 6
             && String.sub name 0 6 = "relop."
             && Filename.check_suffix name ".evals" -> acc + n
      | _ -> acc)
    0
    (Obs.Metrics.snapshot Obs.Metrics.global)

(* The acceptance criterion of the indexed-IVM change: maintaining an
   equi-join view performs zero [Eval.eval] calls — every delta row is an
   index probe. *)
let test_view_indexed_join_no_eval () =
  let rand = Prng.of_seeds [| 5; 17 |] in
  let db = random_db rand 150 6 in
  let q =
    Sql.parse
      "SELECT T2.STRING FROM TOKEN T1, TOKEN T2 WHERE T1.DOC_ID=T2.DOC_ID AND \
       T1.LABEL='B-ORG' AND T2.LABEL='B-PER'"
  in
  let view = View.create db q in
  Obs.Metrics.reset Obs.Metrics.global;
  Obs.Metrics.set_enabled true;
  for _ = 1 to 6 do
    let delta = Delta.create () in
    apply_random_updates rand db delta 10;
    View.update view delta
  done;
  Obs.Metrics.set_enabled false;
  Alcotest.(check int) "zero Eval.eval during equi-join maintenance" 0 (sum_relop_evals ());
  (match Obs.Metrics.find Obs.Metrics.global "view.join.probe_rows" with
  | Some (Obs.Metrics.Counter n) ->
    Alcotest.(check bool) "index probes recorded" true (n > 0)
  | _ -> Alcotest.fail "view.join.probe_rows not recorded");
  (match Obs.Metrics.find Obs.Metrics.global "view.node.materialized_rows" with
  | Some (Obs.Metrics.Gauge g) ->
    Alcotest.(check bool) "materialized rows recorded" true (g > 0.)
  | _ -> Alcotest.fail "view.node.materialized_rows not recorded");
  check_bag "indexed view still correct" (Eval.eval db q).Eval.bag (View.result view)

(* Footprint short-circuit: a K_recompute (Diff) subtree whose base tables
   are untouched by the batch must not re-evaluate. *)
let test_view_recompute_short_circuit () =
  let db = Database.create () in
  let t = mk_token_table [ (1, 1, "Bill", "B-PER"); (2, 1, "saw", "O"); (3, 2, "IBM", "B-ORG") ] in
  Database.add_table db t;
  let other = Table.create ~pk:"tok_id" ~name:"OTHER" (token_schema ()) in
  Table.insert other (r [ Int 10; Int 1; Text "x"; Text "O" ]);
  Database.add_table db other;
  let q =
    Algebra.(
      Diff
        ( project [ "string" ] (scan "TOKEN"),
          project [ "string" ] (select Expr.(col "label" = text "O") (scan "TOKEN")) ))
  in
  let view = View.create db q in
  Obs.Metrics.reset Obs.Metrics.global;
  Obs.Metrics.set_enabled true;
  let d1 = Delta.create () in
  let old_row, new_row = Table.update_field_by_pk other (Int 10) ~column:"label" (Text "B-PER") in
  Delta.record_update d1 ~table:"OTHER" ~old_row ~new_row;
  View.update view d1;
  Alcotest.(check int) "untouched subtree short-circuits" 0 (sum_relop_evals ());
  let d2 = Delta.create () in
  let old_row, new_row = Table.update_field_by_pk t (Int 2) ~column:"label" (Text "B-LOC") in
  Delta.record_update d2 ~table:"TOKEN" ~old_row ~new_row;
  View.update view d2;
  Obs.Metrics.set_enabled false;
  Alcotest.(check bool) "touched subtree recomputes" true (sum_relop_evals () > 0);
  check_bag "diff view correct after both batches" (Eval.eval db q).Eval.bag (View.result view)

(* ------------------------------------------------------------------ *)
(* Delta bookkeeping *)

let test_delta_coalesce () =
  let d = Delta.create () in
  let row1 = r [ Int 1; Text "a" ] and row2 = r [ Int 1; Text "b" ] in
  Delta.record_update d ~table:"T" ~old_row:row1 ~new_row:row2;
  Delta.record_update d ~table:"T" ~old_row:row2 ~new_row:row1;
  Alcotest.(check bool) "round trip cancels" true (Delta.is_empty d)

let test_delta_plus_minus () =
  let d = Delta.create () in
  let row1 = r [ Int 1; Text "a" ] and row2 = r [ Int 1; Text "b" ] in
  Delta.record_update d ~table:"T" ~old_row:row1 ~new_row:row2;
  let signed = Option.get (Delta.for_table d "T") in
  Alcotest.(check int) "new row counts +1" 1 (Bag.count signed row2);
  Alcotest.(check int) "old row counts -1" (-1) (Bag.count signed row1);
  Alcotest.(check int) "magnitude" 2 (Delta.total_magnitude d)


(* ------------------------------------------------------------------ *)
(* Extended expressions: LIKE, IN, BETWEEN, IS NULL *)

let test_like_matcher () =
  let cases =
    [ ("%", "anything", true); ("IBM", "IBM", true); ("IBM", "IBm", false);
      ("B%", "Boston", true); ("%ton", "Boston", true); ("%os%", "Boston", true);
      ("B_ston", "Boston", true); ("B_ston", "Bston", false); ("", "", true);
      ("", "x", false); ("%%", "x", true); ("a%b%c", "a123b456c", true);
      ("a%b%c", "a123c456b", false) ]
  in
  List.iter
    (fun (pattern, s, expected) ->
      Alcotest.(check bool)
        (Printf.sprintf "LIKE %s ~ %s" pattern s)
        expected
        (Expr.like_match ~pattern s))
    cases

let test_expr_in_between_null () =
  let s =
    Schema.make
      [ { Schema.name = "x"; ty = Value.T_int }; { Schema.name = "s"; ty = Value.T_text } ]
  in
  let in_pred = Expr.bind_pred s (Expr.in_list (Expr.col "x") [ Value.Int 1; Value.Int 3 ]) in
  Alcotest.(check bool) "in hit" true (in_pred (r [ Int 3; Text "a" ]));
  Alcotest.(check bool) "in miss" false (in_pred (r [ Int 2; Text "a" ]));
  let btw = Expr.bind_pred s (Expr.between (Expr.col "x") (Value.Int 2) (Value.Int 4)) in
  Alcotest.(check bool) "between hit" true (btw (r [ Int 2; Text "a" ]));
  Alcotest.(check bool) "between miss" false (btw (r [ Int 5; Text "a" ]));
  let isnull = Expr.bind_pred s (Expr.Is_null (Expr.col "s")) in
  Alcotest.(check bool) "null" true (isnull (r [ Int 1; Null ]));
  Alcotest.(check bool) "not null" false (isnull (r [ Int 1; Text "" ]))

let test_sql_like_in_between () =
  let db = sample_db () in
  let like = run_sql db "SELECT string FROM TOKEN WHERE string LIKE 'B%'" in
  check_bag "LIKE B%" (bag_of_rows [ r [ Text "Bill" ]; r [ Text "Boston" ]; r [ Text "Boston" ] ])
    like.bag;
  let inq = run_sql db "SELECT tok_id FROM TOKEN WHERE label IN ('B-PER','B-LOC')" in
  check_bag "IN list" (bag_of_rows [ r [ Int 1 ]; r [ Int 5 ]; r [ Int 7 ] ]) inq.bag;
  let btw = run_sql db "SELECT tok_id FROM TOKEN WHERE tok_id BETWEEN 2 AND 4" in
  check_bag "BETWEEN" (bag_of_rows [ r [ Int 2 ]; r [ Int 3 ]; r [ Int 4 ] ]) btw.bag;
  let notin = run_sql db "SELECT COUNT(*) FROM TOKEN WHERE label NOT IN ('O')" in
  check_bag "NOT IN" (bag_of_rows [ r [ Int 5 ] ]) notin.bag;
  let arith = run_sql db "SELECT tok_id FROM TOKEN WHERE tok_id + 1 = 3" in
  check_bag "arith" (bag_of_rows [ r [ Int 2 ] ]) arith.bag

(* ------------------------------------------------------------------ *)
(* ORDER BY / LIMIT *)

let test_sql_order_limit () =
  let db = sample_db () in
  let q = Sql.parse "SELECT tok_id FROM TOKEN WHERE label <> 'O' ORDER BY tok_id DESC LIMIT 2" in
  check_bag "top 2 descending" (bag_of_rows [ r [ Int 7 ]; r [ Int 5 ] ]) (Eval.eval db q).Eval.bag

let test_order_by_no_limit_is_multiset_noop () =
  let db = sample_db () in
  let plain = run_sql db "SELECT label FROM TOKEN" in
  let ordered = run_sql db "SELECT label FROM TOKEN ORDER BY label" in
  check_bag "same multiset" plain.bag ordered.bag

let test_limit_counts_multiplicity () =
  let db = sample_db () in
  let res = run_sql db "SELECT label FROM TOKEN ORDER BY label LIMIT 4" in
  (* labels sorted: B-LOC, B-ORG, B-ORG, B-PER, ... *)
  let expected = Bag.create () in
  Bag.add expected (r [ Text "B-LOC" ]);
  Bag.add ~count:2 expected (r [ Text "B-ORG" ]);
  Bag.add expected (r [ Text "B-PER" ]);
  check_bag "limit across duplicates" expected res.bag

let test_view_with_limit_recomputes () =
  let rand = Prng.of_seeds [| 99 |] in
  let db = random_db rand 80 5 in
  let q = Sql.parse "SELECT tok_id FROM TOKEN WHERE label='B-PER' ORDER BY tok_id LIMIT 5" in
  let view = View.create db q in
  for _ = 1 to 8 do
    let delta = Delta.create () in
    apply_random_updates rand db delta 12;
    View.update view delta;
    let fresh = Eval.eval db q in
    if not (bag_equal fresh.Eval.bag (View.result view)) then
      Alcotest.fail "limited view diverged"
  done

(* ------------------------------------------------------------------ *)
(* Indexed selection fast path *)

let test_indexed_selection_agrees () =
  let rand = Prng.of_seeds [| 123 |] in
  let db = random_db rand 200 8 in
  let t = Database.table db "TOKEN" in
  let q = Sql.parse "SELECT tok_id FROM TOKEN WHERE doc_id = 3 AND label = 'B-PER'" in
  let before = Eval.eval db q in
  Table.create_index t "doc_id";
  let after = Eval.eval db q in
  check_bag "index path = scan path" before.Eval.bag after.Eval.bag

let test_indexed_selection_empty_key () =
  let db = sample_db () in
  Table.create_index (Database.table db "TOKEN") "doc_id";
  let res = run_sql db "SELECT tok_id FROM TOKEN WHERE doc_id = 99" in
  Alcotest.(check int) "no rows" 0 (Bag.total res.Eval.bag)


(* Property: the optimizer never changes query semantics. Random select/
   project/product/join trees over the TOKEN table, random databases. *)
let prop_optimizer_preserves_semantics =
  QCheck.Test.make ~name:"optimizer: optimized plan is equivalent" ~count:60
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rand = Prng.of_seeds [| seed; 7 |] in
      let db = random_db rand 60 4 in
      let pred alias =
        let col_name = Printf.sprintf "%s.label" alias in
        let v = labels_pool.(Prng.int rand (Array.length labels_pool)) in
        Expr.(col col_name = text v)
      in
      let base =
        Algebra.Product (Algebra.scan ~alias:"T1" "TOKEN", Algebra.scan ~alias:"T2" "TOKEN")
      in
      let conj =
        Expr.conj
          [ pred "T1"; pred "T2"; Expr.(Expr.col "T1.doc_id" = Expr.col "T2.doc_id") ]
      in
      let q =
        match Prng.int rand 3 with
        | 0 -> Algebra.Select (conj, base)
        | 1 -> Algebra.Project ([ "T1.string" ], Algebra.Select (conj, base))
        | _ -> Algebra.count_star (Algebra.Select (conj, base))
      in
      let plain = Eval.eval db q in
      let opt = Eval.eval db (Optimizer.optimize q) in
      bag_equal plain.Eval.bag opt.Eval.bag)


let test_sql_having () =
  let db = sample_db () in
  let res =
    run_sql db "SELECT doc_id, COUNT(*) AS n FROM TOKEN GROUP BY doc_id HAVING n >= 3"
  in
  check_bag "having filters groups"
    (bag_of_rows [ r [ Int 1; Int 3 ]; r [ Int 2; Int 3 ] ])
    res.bag

let test_sql_join_on () =
  let db = sample_db () in
  let res =
    run_sql db
      "SELECT T2.STRING FROM TOKEN T1 JOIN TOKEN T2 ON T1.DOC_ID = T2.DOC_ID WHERE \
       T1.STRING='Boston' AND T1.LABEL='B-ORG' AND T2.LABEL='B-PER'"
  in
  check_bag "join..on equals comma join" (bag_of_rows [ r [ Text "Ramirez" ] ]) res.bag

let test_sql_having_without_group () =
  match Sql.parse "SELECT string FROM TOKEN HAVING string = 'x'" with
  | exception Sql.Parse_error _ -> ()
  | _ -> Alcotest.fail "HAVING without GROUP BY must fail"


(* ------------------------------------------------------------------ *)
(* DML statements and view maintenance under inserts/deletes *)

let test_views_follow_dml () =
  let db = sample_db () in
  let queries =
    [ Sql.parse "SELECT STRING FROM TOKEN WHERE LABEL='B-PER'";
      Sql.parse "SELECT COUNT(*) FROM TOKEN WHERE LABEL='B-PER'";
      Sql.parse "SELECT doc_id, COUNT(*) AS n FROM TOKEN GROUP BY doc_id";
      Sql.parse
        "SELECT T2.STRING FROM TOKEN T1, TOKEN T2 WHERE T1.STRING='Boston' AND \
         T1.LABEL='B-ORG' AND T1.DOC_ID=T2.DOC_ID AND T2.LABEL='B-PER'" ]
  in
  let views = List.map (View.create db) queries in
  let t = Database.table db "TOKEN" in
  let insert d row =
    Table.insert t row;
    Delta.record_insert d ~table:"TOKEN" row
  in
  let delete d row =
    Table.delete t row;
    Delta.record_delete d ~table:"TOKEN" row
  in
  let update d column v row =
    let old_row, new_row = Table.update_field_by_pk t (Row.get row 0) ~column v in
    Delta.record_update d ~table:"TOKEN" ~old_row ~new_row
  in
  let where column v =
    let pos = Schema.index_of (Table.schema t) column in
    List.filter (fun row -> Value.equal (Row.get row pos) v) (Bag.rows (Table.rows t))
  in
  let statements =
    [ ("insert Pedro", fun d -> insert d (r [ Int 50; Int 2; Text "Pedro"; Text "B-PER" ]));
      ( "Boston -> B-ORG",
        fun d -> List.iter (update d "label" (Text "B-ORG")) (where "string" (Text "Boston")) );
      ("delete O", fun d -> List.iter (delete d) (where "label" (Text "O")));
      ( "insert two",
        fun d ->
          insert d (r [ Int 51; Int 2; Text "Boston"; Text "B-ORG" ]);
          insert d (r [ Int 52; Int 3; Text "Eli"; Text "B-PER" ]) );
      ("doc 3 -> 2", fun d -> List.iter (update d "doc_id" (Int 2)) (where "doc_id" (Int 3))) ]
  in
  List.iter
    (fun (stmt, apply) ->
      let delta = Delta.create () in
      apply delta;
      List.iter2
        (fun view q ->
          View.update view delta;
          let fresh = Eval.eval db q in
          if not (bag_equal fresh.Eval.bag (View.result view)) then
            Alcotest.failf "view diverged after %S on %s" stmt
              (Format.asprintf "%a" Algebra.pp q))
        views queries)
    statements


(* A few extra edge cases surfaced while writing the benches. *)

let test_schema_duplicate_column () =
  match Schema.make [ { Schema.name = "a"; ty = Value.T_int }; { Schema.name = "a"; ty = Value.T_int } ] with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "duplicate columns must be rejected"

let test_order_by_desc_ties_deterministic () =
  let db = sample_db () in
  let q1 = Sql.parse "SELECT doc_id FROM TOKEN ORDER BY doc_id DESC LIMIT 3" in
  let a = Eval.eval db q1 in
  let b = Eval.eval db q1 in
  check_bag "stable under re-evaluation" a.Eval.bag b.Eval.bag

let test_empty_table_queries () =
  let db = Database.create () in
  let _ = Database.create_table db ~pk:"tok_id" ~name:"TOKEN" (token_schema ()) in
  let sel = run_sql db "SELECT string FROM TOKEN WHERE label='B-PER'" in
  Alcotest.(check int) "empty selection" 0 (Bag.total sel.Eval.bag);
  let cnt = run_sql db "SELECT COUNT(*) FROM TOKEN" in
  check_bag "count of empty" (bag_of_rows [ r [ Int 0 ] ]) cnt.bag;
  let grp = run_sql db "SELECT doc_id, COUNT(*) AS n FROM TOKEN GROUP BY doc_id" in
  Alcotest.(check int) "no groups" 0 (Bag.total grp.bag);
  (* and a view over the empty table updates cleanly *)
  let view = View.create db (Sql.parse "SELECT COUNT(*) FROM TOKEN WHERE label='B-PER'") in
  let t = Database.table db "TOKEN" in
  let delta = Delta.create () in
  let row = r [ Int 0; Int 0; Text "Bill"; Text "B-PER" ] in
  Table.insert t row;
  Delta.record_insert delta ~table:"TOKEN" row;
  View.update view delta;
  check_bag "view after first insert" (bag_of_rows [ r [ Int 1 ] ]) (View.result view)

(* ------------------------------------------------------------------ *)
(* Intern pool *)

let test_intern_basics () =
  let a = Intern.intern "intern-test-alpha" in
  let b = Intern.intern "intern-test-beta" in
  Alcotest.(check bool) "distinct strings, distinct ids" true (a <> b);
  Alcotest.(check int) "re-intern is stable" a (Intern.intern "intern-test-alpha");
  Alcotest.(check string) "resolve inverts intern" "intern-test-alpha" (Intern.resolve a);
  Alcotest.(check (option int)) "find_opt finds" (Some b) (Intern.find_opt "intern-test-beta");
  Alcotest.(check (option int)) "find_opt does not allocate ids" None
    (Intern.find_opt "intern-test-never-seen");
  (match Intern.value a with
  | Value.Text s -> Alcotest.(check string) "value wraps resolve" "intern-test-alpha" s
  | _ -> Alcotest.fail "Intern.value not a Text");
  (* The R7 contract: the boxed Value is allocated once per id, so the
     per-sample decode path can return it without allocating. *)
  Alcotest.(check bool) "value physically shared" true (Intern.value a == Intern.value a)

(* Bijectivity under duplicates: equal strings share an id, distinct
   strings never do, and resolve/intern stay inverses under re-interning. *)
let prop_intern_roundtrip =
  QCheck.Test.make ~name:"intern: id assignment is bijective and stable" ~count:200
    QCheck.(small_list (int_range 0 40))
    (fun ns ->
      let ss = List.map (fun n -> "iq-" ^ string_of_int n) ns in
      let ids = List.map Intern.intern ss in
      List.for_all2
        (fun s id ->
          String.equal (Intern.resolve id) s
          && Intern.intern s = id
          && (match Intern.find_opt s with Some id' -> id' = id | None -> false))
        ss ids
      && List.for_all2
           (fun s id ->
             List.for_all2 (fun s' id' -> String.equal s s' = (id = id')) ss ids)
           ss ids)

let test_intern_collision_stress () =
  (* 10k fresh strings through one pool: ids must be dense and distinct —
     a hash collision that aliased two strings would break one of these. *)
  let n = 10_000 in
  let ids = Array.init n (fun i -> Intern.intern (Printf.sprintf "stress-%d" i)) in
  let before = Array.fold_left min max_int ids in
  let seen = Hashtbl.create n in
  Array.iteri
    (fun i id ->
      Alcotest.(check bool) "id in dense range" true (id >= before && id < before + n);
      if Hashtbl.mem seen id then Alcotest.failf "id %d assigned twice" id;
      Hashtbl.replace seen id ();
      Alcotest.(check string) "resolves" (Printf.sprintf "stress-%d" i) (Intern.resolve id))
    ids;
  (* Re-interning the whole batch mints nothing new. *)
  Array.iteri
    (fun i id -> Alcotest.(check int) "stable" id (Intern.intern (Printf.sprintf "stress-%d" i)))
    ids

(* ------------------------------------------------------------------ *)
(* Columnar storage backend *)

let mk_columnar_token_table ?(name = "TOKEN") rows =
  let t = Table.create_columnar ~pk:"tok_id" ~name (token_schema ()) in
  List.iter (fun (id, doc, s, l) -> Table.insert t (r [ Int id; Int doc; Text s; Text l ])) rows;
  t

let sample_rows =
  [ (1, 1, "Bill", "B-PER"); (2, 1, "saw", "O"); (3, 1, "IBM", "B-ORG");
    (4, 2, "Boston", "B-ORG"); (5, 2, "Ramirez", "B-PER"); (6, 2, "played", "O") ]

let test_columnar_matches_boxed () =
  let b = mk_token_table sample_rows in
  let c = mk_columnar_token_table sample_rows in
  Alcotest.(check bool) "storage kinds" true
    (Table.storage b = `Boxed && Table.storage c = `Columnar);
  check_bag "same rows" (Table.rows b) (Table.rows c);
  Alcotest.(check int) "cardinal" (Table.cardinal b) (Table.cardinal c);
  (* keyed access and point update behave identically *)
  (match (Table.find_by_pk b (Int 4), Table.find_by_pk c (Int 4)) with
  | Some rb, Some rc -> Alcotest.(check bool) "find_by_pk" true (Row.equal rb rc)
  | _ -> Alcotest.fail "find_by_pk lost a row");
  Alcotest.(check bool) "float key unifies with int key" true
    (match Table.find_by_pk c (Float 4.) with Some _ -> true | None -> false);
  let ob, nb = Table.update_field_by_pk b (Int 2) ~column:"label" (Text "B-LOC") in
  let oc, nc = Table.update_field_by_pk c (Int 2) ~column:"label" (Text "B-LOC") in
  Alcotest.(check bool) "update old rows agree" true (Row.equal ob oc);
  Alcotest.(check bool) "update new rows agree" true (Row.equal nb nc);
  check_bag "rows after update" (Table.rows b) (Table.rows c);
  (* delete (swap-with-last internally) keeps contents and keys aligned *)
  Table.delete b (r [ Int 1; Int 1; Text "Bill"; Text "B-PER" ]);
  Table.delete c (r [ Int 1; Int 1; Text "Bill"; Text "B-PER" ]);
  check_bag "rows after delete" (Table.rows b) (Table.rows c);
  Alcotest.(check (option Alcotest.reject)) "deleted key gone" None
    (Option.map (fun _ -> ()) (Table.find_by_pk c (Int 1)));
  (* secondary index agrees across backends, including the miss cases *)
  Table.create_index b "label";
  Table.create_index c "label";
  check_bag "indexed lookup" (Table.lookup b ~column:"label" (Text "B-ORG"))
    (Table.lookup c ~column:"label" (Text "B-ORG"));
  Alcotest.(check int) "lookup of un-interned text is empty" 0
    (Bag.total (Table.lookup c ~column:"label" (Text "never-a-label")));
  (* the raw int encoding round-trips through the pool *)
  match Table.column_ints c "string" with
  | None -> Alcotest.fail "column_ints missing on columnar backend"
  | Some ids ->
    Alcotest.(check int) "one id per row" (Table.cardinal c) (Array.length ids);
    Alcotest.(check bool) "ids resolve to strings" true
      (Array.for_all (fun id -> String.length (Intern.resolve id) > 0) ids)

let test_columnar_strictness () =
  let c = mk_columnar_token_table [ (1, 1, "a", "O") ] in
  Alcotest.check_raises "duplicate pk"
    (Invalid_argument "Table.insert(TOKEN): duplicate key 1")
    (fun () -> Table.insert c (r [ Int 1; Int 9; Text "b"; Text "O" ]));
  Alcotest.(check bool) "type mismatch rejected" true
    (match Table.insert c (r [ Int 2; Text "not-an-int"; Text "b"; Text "O" ]) with
    | exception Invalid_argument _ -> true
    | () -> false);
  Alcotest.(check bool) "Null rejected" true
    (match Table.insert c (r [ Int 2; Null; Text "b"; Text "O" ]) with
    | exception Invalid_argument _ -> true
    | () -> false);
  Alcotest.check_raises "delete of absent row"
    Not_found
    (fun () -> Table.delete c (r [ Int 7; Int 7; Text "zz"; Text "O" ]));
  Alcotest.(check bool) "rejected inserts left no trace" true (Table.cardinal c = 1);
  Alcotest.(check bool) "non-int pk rejected at create" true
    (match Table.create_columnar ~pk:"string" ~name:"BAD" (token_schema ()) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_columnar_view_maintenance () =
  (* The IVM = full-requery property must survive the backend swap: a
     view over a columnar table, driven by deltas, equals re-evaluation. *)
  let db = Database.create () in
  let t = mk_columnar_token_table sample_rows in
  Database.add_table db t;
  Table.create_index t "label";
  let q = Sql.parse "SELECT string FROM TOKEN WHERE label='B-PER'" in
  let view = View.create db q in
  let step delta =
    View.update view delta;
    check_bag "view = full requery" (Eval.eval db q).Eval.bag (View.result view)
  in
  let d1 = Delta.create () in
  let row = r [ Int 10; Int 3; Text "Smith"; Text "B-PER" ] in
  Table.insert t row;
  Delta.record_insert d1 ~table:"TOKEN" row;
  step d1;
  let d2 = Delta.create () in
  let old_row, new_row = Table.update_field_by_pk t (Int 5) ~column:"label" (Text "O") in
  Delta.record_update d2 ~table:"TOKEN" ~old_row ~new_row;
  step d2;
  let d3 = Delta.create () in
  Table.delete t row;
  Delta.record_delete d3 ~table:"TOKEN" row;
  step d3

(* A nested-loop self-join: each aliased scan is the other's J_nested
   sibling, so both are owned and each holds its own copy of the rows. On
   a columnar table Table.rows is one cached decode, so two scans aliasing
   it would fold every delta into the same bag twice. *)
let nested_self_join =
  "SELECT a.tok_id, b.label FROM TOKEN a, TOKEN b WHERE a.tok_id < b.tok_id AND a.label < b.label"

let relabel t delta id label =
  let old_row, new_row = Table.update_field_by_pk t (Int id) ~column:"label" (Text label) in
  Delta.record_update delta ~table:"TOKEN" ~old_row ~new_row

let test_aliased_self_join_both_backends () =
  List.iter
    (fun (backend, t) ->
      let db = Database.create () in
      Database.add_table db t;
      let q = Sql.parse nested_self_join in
      let view = View.create db q in
      List.iteri
        (fun i (id, label) ->
          let d = Delta.create () in
          relabel t d id label;
          View.update view d;
          check_bag
            (Printf.sprintf "%s: view = full requery after update %d" backend (i + 1))
            (Eval.eval db q).Eval.bag (View.result view))
        [ (2, "B-PER"); (4, "O"); (1, "I-PER"); (6, "B-ORG") ])
    [ ("boxed", mk_token_table sample_rows); ("columnar", mk_columnar_token_table sample_rows) ]

(* The same random TOKEN rows, loaded boxed and columnar, drive one plan
   list: owned scans (a root scan, DISTINCT over a scan, both sides of a
   nested-loop self-join) and non-owned ones (under selections, an equi
   join and a GROUP BY). The last two plans share aliased scan nodes under
   one cache: the first leaves scan [a] live and non-owned, the second
   turns it owned. After every batch of label updates each view equals
   re-evaluation, and the two backends' views hold the same rows. *)
let differential_plans () =
  [ Algebra.scan "TOKEN";
    Algebra.(Distinct (scan "TOKEN"));
    Sql.parse nested_self_join;
    Sql.parse
      "SELECT a.string, b.label FROM TOKEN a, TOKEN b WHERE a.doc_id = b.doc_id AND \
       a.label = 'B-PER'";
    Sql.parse "SELECT label, COUNT(*) AS n FROM TOKEN GROUP BY label" ]

let cached_plans () =
  [ Sql.parse "SELECT a.string FROM TOKEN a WHERE a.label = 'B-PER'"; Sql.parse nested_self_join ]

let prop_backends_agree =
  QCheck.Test.make ~name:"view: boxed and columnar backends agree" ~count:40
    QCheck.(pair small_nat (int_range 1 24))
    (fun (seed, n_rows) ->
      let rand = Prng.of_seeds [| seed; 907 |] in
      let pick pool = pool.(Prng.int rand (Array.length pool)) in
      let rows =
        List.init n_rows (fun i -> (i, 1 + Prng.int rand 3, pick strings_pool, pick labels_pool))
      in
      let batches =
        List.init 6 (fun _ ->
            List.init (1 + Prng.int rand 4) (fun _ -> (Prng.int rand n_rows, pick labels_pool)))
      in
      let run t =
        let db = Database.create () in
        Database.add_table db t;
        let cache = View.cache_create () in
        let plans = differential_plans () @ cached_plans () in
        let views =
          List.map (View.create db) (differential_plans ())
          @ List.map (View.create ~cache db) (cached_plans ())
        in
        List.map
          (fun batch ->
            let d = Delta.create () in
            List.iter (fun (id, label) -> relabel t d id label) batch;
            List.iter (fun v -> View.update v d) views;
            List.iter2
              (fun q v ->
                if not (bag_equal (Eval.eval db q).Eval.bag (View.result v)) then
                  QCheck.Test.fail_reportf "view of %a diverged from re-evaluation" Algebra.pp q)
              plans views;
            List.map (fun v -> Bag.copy (View.result v)) views)
          batches
      in
      let boxed = run (mk_token_table rows) in
      let columnar = run (mk_columnar_token_table rows) in
      List.for_all2 (List.for_all2 bag_equal) boxed columnar)

(* The columnar selection kernel (Table.select over Col_store) must equal
   filtering a full decode with the compiled predicate, whatever the
   equality conjuncts it pre-filters on: int/text/bool constants, text
   never interned, integral and fractional floats on an int column,
   mistyped constants, alias-qualified names, Or/Neq residuals the kernel
   cannot use, and slots left sparse by deletions. *)
let kernel_schema () =
  Schema.make
    [ { Schema.name = "ID"; ty = Value.T_int };
      { Schema.name = "N"; ty = Value.T_int };
      { Schema.name = "STRING"; ty = Value.T_text };
      { Schema.name = "FLAG"; ty = Value.T_bool };
      { Schema.name = "W"; ty = Value.T_float } ]

let kernel_words = [| "Boston"; "IBM"; "saw"; "Ramirez" |]

(* Never interned by any test: the kernel must answer it without a probe. *)
let never_interned = "kernel-never-interned-\x01"

let prop_select_kernel =
  QCheck.Test.make ~name:"columnar: select kernel equals filter of a full decode" ~count:300
    QCheck.(
      quad small_nat (int_range 0 60) (small_list (int_range 0 11)) (pair bool (int_range 0 3)))
    (fun (seed, n_rows, atoms, (qualified, n_deletes)) ->
      let rand = Prng.of_seeds [| seed; 251 |] in
      let t = Table.create_columnar ~pk:"ID" ~name:"K" (kernel_schema ()) in
      for id = 0 to n_rows - 1 do
        Table.insert t
          (r
             [ Int id;
               Int (Prng.int rand 5);
               Text kernel_words.(Prng.int rand (Array.length kernel_words));
               Bool (Prng.int rand 2 = 0);
               Float (float_of_int (Prng.int rand 3) /. 2.) ])
      done;
      (* Delete from the front so swap-with-last leaves the slots out of
         key order. *)
      for _ = 1 to min n_deletes (Table.cardinal t) do
        match Bag.rows (Table.rows t) with
        | row :: _ -> Table.delete t row
        | [] -> ()
      done;
      let schema = if qualified then Schema.qualify "T1" (Table.schema t) else Table.schema t in
      let c name = Expr.col (if qualified then "T1." ^ name else name) in
      let k () = Prng.int rand 5 in
      let word () = Expr.text kernel_words.(Prng.int rand (Array.length kernel_words)) in
      let atom = function
        | 0 -> Expr.(c "N" = int (k ()))
        | 1 -> Expr.(word () = c "STRING")
        | 2 -> Expr.(c "STRING" = text never_interned)
        | 3 ->
          let flag = Value.Bool (Prng.int rand 2 = 0) in
          Expr.(c "FLAG" = Const flag)
        | 4 -> Expr.(c "N" = Const (Value.Float 3.))
        | 5 -> Expr.(c "N" = Const (Value.Float 3.5))
        | 6 -> Expr.(c "N" = text "3")
        | 7 -> Expr.(c "STRING" = int 3)
        | 8 -> Expr.(c "W" = Const (Value.Float 0.5))
        | 9 -> Expr.(c "N" <> int (k ()))
        | 10 -> Expr.(c "N" = int (k ()) || c "STRING" = word ())
        | _ -> Expr.(c "ID" = int (Prng.int rand (n_rows + 1)))
      in
      let pred = Expr.conj (List.map atom atoms) in
      let keep = Expr.bind_pred schema pred in
      let kernel = Table.select t (Expr.eq_constants schema pred) keep in
      Option.is_none (Intern.find_opt never_interned)
      && bag_equal (Bag.filter keep (Table.rows t)) kernel)

let test_columnar_query4_view () =
  (* Query 4's selections read a columnar TOKEN through the kernel at
     bootstrap; every materialized node must equal the boxed build's. A
     view over a subplan, built through the same cache, adopts the live
     node for it, so its result is that node's bag. *)
  let rows =
    sample_rows
    @ [ (7, 3, "Boston", "B-ORG"); (8, 3, "Smith", "B-PER"); (9, 3, "Jones", "B-PER");
        (10, 4, "Boston", "O"); (11, 4, "Lee", "B-PER") ]
  in
  let db_of t =
    let db = Database.create () in
    Database.add_table db t;
    db
  in
  let cdb = db_of (mk_columnar_token_table rows) in
  let bdb = db_of (mk_token_table rows) in
  let q =
    Optimizer.reorder cdb
      (Optimizer.optimize
         (Sql.parse
            "SELECT T2.STRING FROM TOKEN T1, TOKEN T2 WHERE T1.STRING='Boston' AND \
             T1.LABEL='B-ORG' AND T1.DOC_ID=T2.DOC_ID AND T2.LABEL='B-PER'"))
  in
  let ccache = View.cache_create () and bcache = View.cache_create () in
  let cv = View.create ~cache:ccache cdb q and bv = View.create ~cache:bcache bdb q in
  check_bag "query 4 result"
    (bag_of_rows [ r [ Text "Ramirez" ]; r [ Text "Smith" ]; r [ Text "Jones" ] ])
    (View.result cv);
  check_bag "root" (View.result bv) (View.result cv);
  let rec subplans (alg : Algebra.t) =
    let kids =
      match alg with
      | Scan _ | Diff _ | Order_by { limit = Some _; _ } -> []
      | Select (_, c) | Project (_, c) | Distinct c | Order_by { child = c; _ } -> [ c ]
      | Product (a, b) | Join (_, a, b) | Union (a, b) -> [ a; b ]
      | Group_by { child; _ } -> [ child ]
      | Count_join { child; sub; _ } -> [ child; sub ]
    in
    List.concat_map (fun c -> (match c with Algebra.Scan _ -> [] | _ -> [ c ]) @ subplans c) kids
  in
  let nodes = subplans q in
  Alcotest.(check bool) "query 4 has inner nodes" true (List.length nodes >= 3);
  let cached = View.cache_nodes ccache in
  List.iteri
    (fun i sub ->
      check_bag (Printf.sprintf "node %d" i)
        (View.result (View.create ~cache:bcache bdb sub))
        (View.result (View.create ~cache:ccache cdb sub)))
    nodes;
  Alcotest.(check int) "every subplan was a live node" cached (View.cache_nodes ccache)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "relational"
    [ ("value",
       [ Alcotest.test_case "compare" `Quick test_value_compare;
         Alcotest.test_case "hash-consistent" `Quick test_value_hash_consistent;
         Alcotest.test_case "arith" `Quick test_value_arith;
         qc prop_value_hash_equal ]);
      ("schema",
       [ Alcotest.test_case "lookup" `Quick test_schema_lookup;
         Alcotest.test_case "qualify" `Quick test_schema_qualify;
         Alcotest.test_case "ambiguous" `Quick test_schema_ambiguous;
         Alcotest.test_case "mem-ambiguous" `Quick test_schema_mem_ambiguous;
         Alcotest.test_case "project" `Quick test_schema_project ]);
      ("bag",
       [ Alcotest.test_case "counts" `Quick test_bag_counts;
         Alcotest.test_case "signed" `Quick test_bag_signed;
         Alcotest.test_case "map-rows" `Quick test_bag_map_rows;
         qc prop_bag_add_bag_assoc ]);
      ("table",
       [ Alcotest.test_case "pk-update" `Quick test_table_pk_update;
         Alcotest.test_case "duplicate-pk" `Quick test_table_duplicate_pk;
         Alcotest.test_case "index" `Quick test_table_index ]);
      ("expr",
       [ Alcotest.test_case "predicates" `Quick test_expr_pred;
         Alcotest.test_case "equi-join" `Quick test_expr_equi_join ]);
      ("eval",
       [ Alcotest.test_case "select-project" `Quick test_eval_select_project;
         Alcotest.test_case "projection-multiset" `Quick test_eval_projection_multiset;
         Alcotest.test_case "count" `Quick test_eval_count;
         Alcotest.test_case "count-empty" `Quick test_eval_count_empty;
         Alcotest.test_case "group-by" `Quick test_eval_group_by;
         Alcotest.test_case "join" `Quick test_eval_join;
         Alcotest.test_case "min-max-avg" `Quick test_eval_min_max_avg;
         Alcotest.test_case "count-join" `Quick test_eval_count_join;
         Alcotest.test_case "distinct-union-diff" `Quick test_eval_distinct_union_diff ]);
      ("sql",
       [ Alcotest.test_case "query1" `Quick test_sql_query1;
         Alcotest.test_case "query2" `Quick test_sql_query2;
         Alcotest.test_case "query3" `Quick test_sql_query3;
         Alcotest.test_case "query4" `Quick test_sql_query4;
         Alcotest.test_case "group-by" `Quick test_sql_group_by;
         Alcotest.test_case "join-optimized" `Quick test_sql_join_becomes_hash;
         Alcotest.test_case "errors" `Quick test_sql_errors ]);
      ("view",
       [ Alcotest.test_case "matches-full-eval" `Quick test_view_matches_full_eval;
         Alcotest.test_case "mixed-dml-matches-full-eval" `Quick test_view_mixed_dml_matches_full_eval;
         Alcotest.test_case "join-delta-both-sides" `Quick test_view_join_delta_both_sides;
         Alcotest.test_case "indexed-join-no-eval" `Quick test_view_indexed_join_no_eval;
         Alcotest.test_case "recompute-short-circuit" `Quick test_view_recompute_short_circuit;
         qc prop_view_maintenance;
         qc prop_indexed_join_delta ]);
      ("delta",
       [ Alcotest.test_case "coalesce" `Quick test_delta_coalesce;
         Alcotest.test_case "plus-minus" `Quick test_delta_plus_minus ]);
      ("extended-sql",
       [ Alcotest.test_case "like-matcher" `Quick test_like_matcher;
         Alcotest.test_case "in-between-null" `Quick test_expr_in_between_null;
         Alcotest.test_case "sql-like-in-between" `Quick test_sql_like_in_between;
         Alcotest.test_case "order-limit" `Quick test_sql_order_limit;
         Alcotest.test_case "order-noop" `Quick test_order_by_no_limit_is_multiset_noop;
         Alcotest.test_case "limit-multiplicity" `Quick test_limit_counts_multiplicity;
         Alcotest.test_case "view-with-limit" `Quick test_view_with_limit_recomputes;
         Alcotest.test_case "having" `Quick test_sql_having;
         Alcotest.test_case "join-on" `Quick test_sql_join_on;
         Alcotest.test_case "having-without-group" `Quick test_sql_having_without_group ]);
      ("intern",
       [ Alcotest.test_case "basics" `Quick test_intern_basics;
         Alcotest.test_case "collision-stress" `Quick test_intern_collision_stress;
         qc prop_intern_roundtrip ]);
      ("columnar",
       [ Alcotest.test_case "matches-boxed" `Quick test_columnar_matches_boxed;
         Alcotest.test_case "strictness" `Quick test_columnar_strictness;
         Alcotest.test_case "view-maintenance" `Quick test_columnar_view_maintenance;
         Alcotest.test_case "query4-view-matches-boxed" `Quick test_columnar_query4_view;
         Alcotest.test_case "aliased-self-join-both-backends" `Quick
           test_aliased_self_join_both_backends;
         qc prop_backends_agree;
         qc prop_select_kernel ]);
      ("index-path",
       [ Alcotest.test_case "agrees-with-scan" `Quick test_indexed_selection_agrees;
         Alcotest.test_case "empty-key" `Quick test_indexed_selection_empty_key ]);
      ("optimizer", [ qc prop_optimizer_preserves_semantics ]);
      ("dml",
       [ Alcotest.test_case "views-follow-dml" `Quick test_views_follow_dml ]);
      ("edge-cases",
       [ Alcotest.test_case "schema-duplicate" `Quick test_schema_duplicate_column;
         Alcotest.test_case "order-desc-stable" `Quick test_order_by_desc_ties_deterministic;
         Alcotest.test_case "empty-table" `Quick test_empty_table_queries ]) ]
