(* Tests for the shared-chain serving layer: a registry of N materialized
   queries fed by one MCMC delta stream must produce, for every query, the
   estimates an identically seeded single-query Evaluator run produces;
   registration and unregistration mid-run must neither disturb the other
   queries nor let the newcomer double-count pending updates. *)

open Relational
open Core

let r vs = Row.make vs

(* The 4-item pairwise-coupled color model of test_core, rebuilt fresh per
   call so identical seeds give identical chains. *)
let color_domain = Factorgraph.Domain.make [ "red"; "blue" ]

let color_field i = Field.make ~table:"ITEM" ~key:(Value.Int i) ~column:"color"

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

(* The chain constructor over an existing ITEM database — doubles as the
   [make_pdb] restore-side constructor for snapshot/WAL resume tests. *)
let pdb_over_db ~seed db =
  let world = World.create db in
  let gp = Graph_pdb.create world in
  let vars = Array.init 4 (fun i -> Graph_pdb.bind gp (color_field i) color_domain) in
  let g = Graph_pdb.graph gp in
  Array.iter (fun v -> ignore (Factorgraph.Graph.add_table_factor g ~scope:[| v |] [| 0.; 0.7 |])) vars;
  for i = 0 to 2 do
    ignore
      (Factorgraph.Graph.add_table_factor g ~scope:[| vars.(i); vars.(i + 1) |]
         [| 1.0; 0.; 0.; 1.0 |])
  done;
  Pdb.create ~world ~proposal:(Graph_pdb.flip_proposal gp) ~rng:(Mcmc.Rng.create seed)

let build_pdb ~seed () = pdb_over_db ~seed (small_db ())

let test_queries =
  [ "SELECT id FROM ITEM WHERE color='blue'";
    "SELECT COUNT(*) FROM ITEM WHERE color='blue'";
    "SELECT color, COUNT(*) AS n FROM ITEM GROUP BY color";
    "SELECT T1.id FROM ITEM T1, ITEM T2 WHERE T1.color=T2.color AND T1.id=0" ]

let check_estimates_equal msg a b =
  if
    List.length a <> List.length b
    || not
         (List.for_all2
            (fun (ra, pa) (rb, pb) -> Row.equal ra rb && abs_float (pa -. pb) < 1e-12)
            a b)
  then Alcotest.failf "%s: estimates diverge" msg

(* The headline contract: every query served off the shared chain matches a
   dedicated Evaluator run on an identically seeded chain, exactly. *)
let test_registry_matches_evaluator () =
  let pdb = build_pdb ~seed:77 () in
  let reg = Serve.Registry.create pdb in
  let ids = List.map (fun sql -> Serve.Registry.register_sql reg sql) test_queries in
  Serve.Registry.run reg ~thin:7 ~samples:120;
  Alcotest.(check int) "samples counted" 120 (Serve.Registry.samples reg);
  List.iter2
    (fun sql id ->
      let shared = Marginals.estimates (Serve.Registry.marginals reg id) in
      let solo =
        Marginals.estimates
          (Evaluator.evaluate_sql Evaluator.Materialized (build_pdb ~seed:77 ()) ~sql
             ~thin:7 ~samples:120)
      in
      check_estimates_equal sql shared solo)
    test_queries ids

(* A query registered mid-run — with MH updates still pending on the world —
   must bootstrap from the current state and then track the stream exactly.
   The oracle is a manual Algorithm-3 loop observing a fresh full evaluation
   of the same worlds. *)
let test_late_registration () =
  let pdb = build_pdb ~seed:21 () in
  let db = Pdb.db pdb in
  let reg = Serve.Registry.create pdb in
  let blue_sql = List.nth test_queries 0 in
  let early = Serve.Registry.register_sql reg blue_sql in
  Serve.Registry.run reg ~thin:3 ~samples:10;
  (* Walk outside the registry so the world carries a pending delta the
     newcomer must not double-count. *)
  Pdb.walk pdb ~steps:2;
  let late_q = Sql.parse "SELECT COUNT(*) FROM ITEM WHERE color='red'" in
  let late = Serve.Registry.register ~name:"late" reg late_q in
  let naive = Marginals.create () in
  Marginals.observe naive (Eval.eval db late_q).Eval.bag;
  Serve.Registry.run reg
    ~on_sample:(fun _ -> Marginals.observe naive (Eval.eval db late_q).Eval.bag)
    ~thin:3 ~samples:12;
  Alcotest.(check int) "late z counts post-registration worlds only" 13
    (Marginals.samples (Serve.Registry.marginals reg late));
  Alcotest.(check int) "early z counts everything" 23
    (Marginals.samples (Serve.Registry.marginals reg early));
  check_estimates_equal "late query tracks naive recomputation"
    (Marginals.estimates (Serve.Registry.marginals reg late))
    (Marginals.estimates naive)

let test_unregister () =
  let pdb = build_pdb ~seed:31 () in
  let reg = Serve.Registry.create pdb in
  let a = Serve.Registry.register_sql ~name:"a" reg (List.nth test_queries 0) in
  let b = Serve.Registry.register_sql ~name:"b" reg (List.nth test_queries 1) in
  Alcotest.(check int) "two registered" 2 (Serve.Registry.query_count reg);
  Serve.Registry.run reg ~thin:5 ~samples:5;
  let mb = Serve.Registry.unregister reg b in
  Alcotest.(check int) "departing marginals frozen at z=6" 6 (Marginals.samples mb);
  Serve.Registry.run reg ~thin:5 ~samples:5;
  Alcotest.(check int) "departed stream no longer observed" 6 (Marginals.samples mb);
  Alcotest.(check int) "survivor keeps sampling" 11
    (Marginals.samples (Serve.Registry.marginals reg a));
  Alcotest.(check (list string)) "one query left" [ "a" ]
    (List.map snd (Serve.Registry.queries reg));
  Alcotest.(check bool) "surviving id is a" true
    (List.map fst (Serve.Registry.queries reg) = [ a ]);
  (match Serve.Registry.marginals reg b with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unregistered id must be unknown");
  (* The survivor's estimates are untouched by the churn: same chain, same
     answer as a dedicated run. *)
  check_estimates_equal "survivor unaffected"
    (Marginals.estimates (Serve.Registry.marginals reg a))
    (Marginals.estimates
       (Evaluator.evaluate_sql Evaluator.Materialized (build_pdb ~seed:31 ())
          ~sql:(List.nth test_queries 0) ~thin:5 ~samples:10))

(* Pooling: Pool.evaluate over c chains must equal merging, per query,
   dedicated Evaluator runs on the same per-chain seeds, since registered
   views are passive observers of the chain. *)
let test_pool_matches_sequential_evaluator () =
  let make ~chain = build_pdb ~seed:(500 + chain) () in
  let queries =
    List.map (fun sql -> (sql, Sql.parse sql)) [ List.nth test_queries 0; List.nth test_queries 3 ]
  in
  let results = Serve.Pool.evaluate ~chains:3 ~make ~queries ~thin:5 ~samples:40 () in
  Alcotest.(check int) "one result per query" 2 (List.length results);
  List.iter
    (fun (name, m) ->
      Alcotest.(check int) "pooled z" (3 * 41) (Marginals.samples m);
      let solo =
        Marginals.merge
          (List.init 3 (fun chain ->
               Evaluator.evaluate Evaluator.Materialized (make ~chain)
                 ~query:(List.assoc name queries) ~thin:5 ~samples:40))
      in
      check_estimates_equal name (Marginals.estimates m) (Marginals.estimates solo))
    results

(* serve.* metrics (docs/OBSERVABILITY.md): queries gauge follows the
   registered set, bootstrap_evals counts registrations, samples counts
   steps. *)
let test_serve_metrics () =
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled false) @@ fun () ->
  let reg_before =
    match Obs.Metrics.find Obs.Metrics.global "serve.bootstrap_evals" with
    | Some (Obs.Metrics.Counter n) -> n
    | _ -> 0
  in
  let samples_before =
    match Obs.Metrics.find Obs.Metrics.global "serve.samples" with
    | Some (Obs.Metrics.Counter n) -> n
    | _ -> 0
  in
  let pdb = build_pdb ~seed:41 () in
  let reg = Serve.Registry.create pdb in
  let a = Serve.Registry.register_sql reg (List.nth test_queries 0) in
  let _b = Serve.Registry.register_sql reg (List.nth test_queries 1) in
  Serve.Registry.run reg ~thin:3 ~samples:7;
  (match Obs.Metrics.find Obs.Metrics.global "serve.queries" with
  | Some (Obs.Metrics.Gauge g) -> Alcotest.(check (float 1e-9)) "queries gauge" 2. g
  | _ -> Alcotest.fail "serve.queries missing");
  (match Obs.Metrics.find Obs.Metrics.global "serve.bootstrap_evals" with
  | Some (Obs.Metrics.Counter n) -> Alcotest.(check int) "bootstraps" (reg_before + 2) n
  | _ -> Alcotest.fail "serve.bootstrap_evals missing");
  (match Obs.Metrics.find Obs.Metrics.global "serve.samples" with
  | Some (Obs.Metrics.Counter n) -> Alcotest.(check int) "samples" (samples_before + 7) n
  | _ -> Alcotest.fail "serve.samples missing");
  ignore (Serve.Registry.unregister reg a : Marginals.t);
  match Obs.Metrics.find Obs.Metrics.global "serve.queries" with
  | Some (Obs.Metrics.Gauge g) -> Alcotest.(check (float 1e-9)) "gauge follows unregister" 1. g
  | _ -> Alcotest.fail "serve.queries missing"

(* ------------------------------------------------------------------ *)
(* Sharded serving (Serve.Shard over Ie.Sharding partitions) *)

let ner_doc id strings truths =
  { Ie.Corpus.id;
    tokens =
      Array.of_list (List.map2 (fun s l -> { Ie.Corpus.string = s; truth = l }) strings truths) }

(* An NER chain over one corpus slice — the same construction the CLI's
   --shards path uses, with a per-shard RNG seed. *)
let ner_pdb_of_docs ~seed docs =
  let db = Database.create () in
  ignore (Ie.Token_table.load db docs : Table.t);
  let world = World.create db in
  let crf = Ie.Crf.create ~params:(Ie.Crf.default_params ()) world in
  let rng = Mcmc.Rng.create seed in
  Pdb.create ~world ~proposal:(Ie.Proposals.batched_flip ~rng crf) ~rng

let shard_queries =
  [ ("bper", Sql.parse "SELECT STRING FROM TOKEN WHERE LABEL='B-PER'");
    ("o-count", Sql.parse "SELECT COUNT(*) FROM TOKEN WHERE LABEL='O'") ]

(* The exactness contract: on a corpus whose string clusters split
   cleanly (cut_strings = 0), Shard.evaluate must be bit-identical to
   running each shard's registry sequentially and unioning with
   Marginals.merge_shards — domains, scheduling, and merge order must
   not perturb a single float. *)
let test_shard_bit_identical () =
  let p = Ie.Labels.B Ie.Labels.Per and o = Ie.Labels.O in
  let docs =
    [ ner_doc 0 [ "Alice"; "ran"; "home" ] [ p; o; o ];
      ner_doc 1 [ "then"; "Alice"; "slept" ] [ o; p; o ];
      ner_doc 2 [ "Bob"; "sat"; "down" ] [ p; o; o ];
      ner_doc 3 [ "and"; "Bob"; "left" ] [ o; p; o ] ]
  in
  let plan = Ie.Sharding.plan ~shards:2 docs in
  Alcotest.(check int) "factor-exact split" 0 plan.Ie.Sharding.cut_strings;
  let subs = Ie.Sharding.split plan docs in
  let make ~shard = ner_pdb_of_docs ~seed:(900 + shard) subs.(shard) in
  let sharded =
    Serve.Shard.evaluate ~shards:2 ~make ~queries:shard_queries ~thin:20 ~samples:60 ()
  in
  let per_shard =
    List.init 2 (fun i ->
        let reg = Serve.Registry.create (make ~shard:i) in
        let ids =
          List.map (fun (name, q) -> Serve.Registry.register ~name reg q) shard_queries
        in
        Serve.Registry.run reg ~thin:20 ~samples:60;
        List.map (Serve.Registry.marginals reg) ids)
  in
  List.iteri
    (fun qi (name, m) ->
      let reference = Marginals.merge_shards (List.map (fun ms -> List.nth ms qi) per_shard) in
      check_estimates_equal name (Marginals.estimates reference) (Marginals.estimates m))
    sharded

(* With cut strings the partition is no longer exactly the single-chain
   setup, so we only require the sharded estimates to track a pooled
   whole-corpus chain within a loose, deterministic (fixed seeds) bound. *)
let test_shard_bounded_divergence () =
  let docs = Ie.Corpus.generate_tokens ~seed:11 ~n_tokens:600 in
  let shards = 3 in
  let plan = Ie.Sharding.plan ~shards docs in
  Alcotest.(check bool) "synthetic corpus has cut strings" true
    (plan.Ie.Sharding.cut_strings > 0);
  let subs = Ie.Sharding.split plan docs in
  let n_tokens = Ie.Corpus.total_tokens docs in
  let samples = 80 in
  let sharded =
    Serve.Shard.evaluate ~shards:plan.Ie.Sharding.n_shards
      ~make:(fun ~shard ->
        let pdb = ner_pdb_of_docs ~seed:(40 + shard) subs.(shard) in
        Pdb.walk pdb ~steps:(4 * plan.Ie.Sharding.weights.(shard));
        pdb)
      ~queries:shard_queries ~thin:(n_tokens / plan.Ie.Sharding.n_shards) ~samples ()
  in
  let single =
    let pdb = ner_pdb_of_docs ~seed:77 docs in
    Pdb.walk pdb ~steps:(4 * n_tokens);
    let reg = Serve.Registry.create pdb in
    let ids =
      List.map (fun (name, q) -> Serve.Registry.register ~name reg q) shard_queries
    in
    Serve.Registry.run reg ~thin:n_tokens ~samples;
    List.map (Serve.Registry.marginals reg) ids
  in
  List.iteri
    (fun qi (name, m) ->
      let reference = List.nth single qi in
      let support =
        max 1 (max (List.length (Marginals.estimates m))
                 (List.length (Marginals.estimates reference)))
      in
      let mse = Marginals.squared_error ~reference m /. float_of_int support in
      if mse > 0.05 then
        Alcotest.failf "%s: sharded estimates diverged from single chain (mse %.4f)" name mse)
    sharded

(* ------------------------------------------------------------------ *)
(* Shared subplans (DESIGN.md §11): structurally-equal subtrees across
   registered queries are hash-consed into one maintained node. The
   contract under test is twofold — sharing must be invisible in every
   marginal (bit-identical to unshared single-query registries), and
   registration must cost O(nodes the new plan actually adds). *)

let join_sql = List.nth test_queries 3
let variant_sql = "SELECT T2.id FROM ITEM T1, ITEM T2 WHERE T1.color=T2.color AND T1.id=0"

let check_estimates_bitwise msg a b =
  let ea = Marginals.estimates a and eb = Marginals.estimates b in
  Alcotest.(check int) (msg ^ ": same support") (List.length ea) (List.length eb);
  List.iter2
    (fun (ra, pa) (rb, pb) ->
      if
        not (Row.equal ra rb)
        || not (Int64.equal (Int64.bits_of_float pa) (Int64.bits_of_float pb))
      then
        Alcotest.failf "%s: estimates differ at %s (%.17g vs %.17g)" msg (Row.to_string ra)
          pa pb)
    ea eb;
  Alcotest.(check int) (msg ^ ": same z") (Marginals.samples a) (Marginals.samples b)

let test_shared_subplans () =
  let reg = Serve.Registry.create (build_pdb ~seed:67 ()) in
  let a = Serve.Registry.register_sql ~name:"a" reg join_sql in
  let c1 = Serve.Registry.cached_nodes reg in
  (* An exact duplicate resolves entirely inside the cache. *)
  let b = Serve.Registry.register_sql ~name:"b" reg join_sql in
  Alcotest.(check int) "duplicate plan adds zero cached nodes" c1
    (Serve.Registry.cached_nodes reg);
  Alcotest.(check bool) "sharing visible in the gauge" true
    (Serve.Registry.shared_nodes reg > 0);
  (* A different projection over the same join core re-creates only its
     own top. *)
  let v = Serve.Registry.register_sql ~name:"v" reg variant_sql in
  let added = Serve.Registry.cached_nodes reg - c1 in
  if added > 2 then
    Alcotest.failf "variant top re-created %d nodes (expected the top only, <= 2)" added;
  Serve.Registry.run reg ~thin:5 ~samples:60;
  check_estimates_bitwise "duplicate tracks its twin bit-for-bit"
    (Serve.Registry.marginals reg a) (Serve.Registry.marginals reg b);
  (* Every query — shared or not — matches a fresh single-query registry
     on an identically seeded chain, float for float. *)
  List.iter
    (fun (sql, id) ->
      let solo = Serve.Registry.create (build_pdb ~seed:67 ()) in
      let sid = Serve.Registry.register_sql solo sql in
      Serve.Registry.run solo ~thin:5 ~samples:60;
      check_estimates_bitwise sql (Serve.Registry.marginals solo sid)
        (Serve.Registry.marginals reg id))
    [ (join_sql, a); (variant_sql, v) ];
  (* Tearing down both join twins evicts their exclusive nodes but leaves
     the core the variant still references — which must keep answering. *)
  ignore (Serve.Registry.unregister reg a : Marginals.t);
  ignore (Serve.Registry.unregister reg b : Marginals.t);
  Alcotest.(check bool) "teardown shrinks the cache" true
    (Serve.Registry.cached_nodes reg < c1 + added);
  Serve.Registry.run reg ~thin:5 ~samples:10;
  let solo = Serve.Registry.create (build_pdb ~seed:67 ()) in
  let sid = Serve.Registry.register_sql solo variant_sql in
  Serve.Registry.run solo ~thin:5 ~samples:70;
  check_estimates_bitwise "survivor unaffected by twin teardown"
    (Serve.Registry.marginals solo sid) (Serve.Registry.marginals reg v)

(* Quadratic-registration regression: a thousand registrations (plus a
   mid-list unregistration sweep) must keep order, O(1) lookups, and a
   cache bounded by the number of distinct plans, not registrations. *)
let test_mass_registration () =
  let reg = Serve.Registry.create (build_pdb ~seed:55 ()) in
  let n = 1000 in
  let ids =
    List.init n (fun i ->
        let q =
          Algebra.Select
            ( Expr.Cmp (Expr.Eq, Expr.Col "id", Expr.Const (Value.Int (i mod 16))),
              Algebra.Scan { table = "ITEM"; alias = None } )
        in
        Serve.Registry.register ~name:(Printf.sprintf "q%d" i) reg q)
  in
  Alcotest.(check int) "all registered" n (Serve.Registry.query_count reg);
  let names = List.map snd (Serve.Registry.queries reg) in
  Alcotest.(check string) "registration order kept (head)" "q0" (List.hd names);
  Alcotest.(check string) "registration order kept (tail)" "q999" (List.nth names (n - 1));
  (* 16 distinct plans over one shared scan: the cache stays tiny. *)
  Alcotest.(check bool) "cache deduplicates across 1000 registrations" true
    (Serve.Registry.cached_nodes reg < 40);
  Serve.Registry.run reg ~thin:2 ~samples:2;
  List.iteri
    (fun i id ->
      if i >= 400 && i < 600 then ignore (Serve.Registry.unregister reg id : Marginals.t))
    ids;
  Alcotest.(check int) "middle slice removed" (n - 200) (Serve.Registry.query_count reg);
  Serve.Registry.run reg ~thin:2 ~samples:1;
  Alcotest.(check int) "survivor keeps sampling" 4
    (Marginals.samples (Serve.Registry.marginals reg (List.hd ids)))

(* qcheck: for ANY pair of the canonical queries (an equal pair forces
   whole-tree sharing), a shared registry with a mid-run registration, an
   unregister, and a snapshot-restore resume stays bit-identical to fresh
   single-query registries over identically seeded chains. *)
let prop_sharing_bit_identical =
  QCheck.Test.make ~name:"serve: subplan sharing is invisible in the marginals" ~count:20
    QCheck.(
      quad (int_range 0 10_000)
        (pair (int_range 0 3) (int_range 0 3))
        (int_range 1 6) (int_range 1 6))
    (fun (seed, (qi, qj), n1, n2) ->
      let sql_i = List.nth test_queries qi and sql_j = List.nth test_queries qj in
      let thin = 3 in
      (* Shared run: [i] and [j] together; [k] (same plan as [j]) joins
         mid-run; [i] leaves; the registry is snapshot-restored and
         continues. *)
      let reg0 = Serve.Registry.create (build_pdb ~seed ()) in
      let id_i = Serve.Registry.register_sql ~name:"i" reg0 sql_i in
      ignore (Serve.Registry.register_sql ~name:"j" reg0 sql_j : Serve.Registry.query_id);
      Serve.Registry.run reg0 ~thin ~samples:n1;
      ignore (Serve.Registry.register_sql ~name:"k" reg0 sql_j : Serve.Registry.query_id);
      Serve.Registry.run reg0 ~thin ~samples:n2;
      let m_i = Serve.Registry.unregister reg0 id_i in
      let reg =
        Serve.Registry.restore ~make_pdb:(pdb_over_db ~seed) (Serve.Registry.snapshot reg0)
      in
      Serve.Registry.run reg ~thin ~samples:n1;
      let find name =
        match List.find_opt (fun (_, n) -> String.equal n name) (Serve.Registry.queries reg) with
        | Some (id, _) -> id
        | None -> QCheck.Test.fail_reportf "query %s lost across restore" name
      in
      (* Unshared oracles: one fresh registry per query, same seed, same
         registration schedule. *)
      let solo_j = Serve.Registry.create (build_pdb ~seed ()) in
      let sj = Serve.Registry.register_sql solo_j sql_j in
      Serve.Registry.run solo_j ~thin ~samples:(n1 + n2 + n1);
      check_estimates_bitwise "j" (Serve.Registry.marginals solo_j sj)
        (Serve.Registry.marginals reg (find "j"));
      let solo_k = Serve.Registry.create (build_pdb ~seed ()) in
      Serve.Registry.run solo_k ~thin ~samples:n1;
      let sk = Serve.Registry.register_sql solo_k sql_j in
      Serve.Registry.run solo_k ~thin ~samples:(n2 + n1);
      check_estimates_bitwise "k" (Serve.Registry.marginals solo_k sk)
        (Serve.Registry.marginals reg (find "k"));
      let solo_i = Serve.Registry.create (build_pdb ~seed ()) in
      let si = Serve.Registry.register_sql solo_i sql_i in
      Serve.Registry.run solo_i ~thin ~samples:(n1 + n2);
      check_estimates_bitwise "i (frozen at unregister)"
        (Serve.Registry.marginals solo_i si) m_i;
      true)

(* WAL crash-resume lands in the shared-plan world: a durable shared
   registry resumed from its log stays bit-identical to its uninterrupted
   twin, and the replayed registry actually shares. *)
let fresh_dir () =
  let path = Filename.temp_file "serve_wal" "" in
  Sys.remove path;
  Sys.mkdir path 0o700;
  path

let rm_rf dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let test_wal_resume_shared () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let seed = 97 in
  let schedule reg step =
    (* register twins -> walk -> variant joins -> walk -> one twin leaves
       -> walk; [step] advances one sample (durably or not). *)
    let a = Serve.Registry.register_sql ~name:"a" reg join_sql in
    let _b = Serve.Registry.register_sql ~name:"b" reg join_sql in
    for _ = 1 to 2 do step reg done;
    ignore (Serve.Registry.register_sql ~name:"v" reg variant_sql : Serve.Registry.query_id);
    for _ = 1 to 2 do step reg done;
    ignore (Serve.Registry.unregister reg a : Marginals.t);
    step reg
  in
  let twin = Serve.Registry.create (build_pdb ~seed ()) in
  schedule twin (fun reg -> Serve.Registry.step reg ~thin:3);
  Serve.Registry.step twin ~thin:3;
  (* Durable copy of the same schedule, crashed after the last scheduled
     sample (every record fsynced), then resumed and stepped once more. *)
  let snap_path = Filename.concat dir "chain.ckpt" in
  let wal_path = Filename.concat dir "chain.wal" in
  let policy = { Serve.Durable.fsync_every = 1; compact_ratio = 1e9 } in
  let reg = Serve.Registry.create (build_pdb ~seed ()) in
  let (_ : Serve.Durable.t) = Serve.Durable.start ~snap_path ~wal_path policy reg in
  schedule reg (fun reg -> Serve.Registry.step reg ~thin:3);
  let dur2 =
    Serve.Durable.resume ~snap_path ~wal_path policy ~make_pdb:(pdb_over_db ~seed)
  in
  let reg' = Serve.Durable.registry dur2 in
  Alcotest.(check bool) "replay reshares" true (Serve.Registry.shared_nodes reg' > 0);
  Serve.Registry.step reg' ~thin:3;
  Serve.Durable.close dur2;
  let find reg name =
    fst (List.find (fun (_, n) -> String.equal n name) (Serve.Registry.queries reg))
  in
  List.iter
    (fun name ->
      check_estimates_bitwise name
        (Serve.Registry.marginals twin (find twin name))
        (Serve.Registry.marginals reg' (find reg' name)))
    [ "b"; "v" ]

let () =
  Alcotest.run "serve"
    [ ("registry",
       [ Alcotest.test_case "matches-evaluator" `Quick test_registry_matches_evaluator;
         Alcotest.test_case "late-registration" `Quick test_late_registration;
         Alcotest.test_case "unregister" `Quick test_unregister ]);
      ("sharing",
       [ Alcotest.test_case "shared-subplans" `Quick test_shared_subplans;
         Alcotest.test_case "mass-registration" `Quick test_mass_registration;
         QCheck_alcotest.to_alcotest prop_sharing_bit_identical;
         Alcotest.test_case "wal-resume-shared" `Quick test_wal_resume_shared ]);
      ("pool",
       [ Alcotest.test_case "matches-sequential-evaluator" `Quick
           test_pool_matches_sequential_evaluator ]);
      ("shard",
       [ Alcotest.test_case "bit-identical-union" `Quick test_shard_bit_identical;
         Alcotest.test_case "bounded-divergence" `Quick test_shard_bounded_divergence ]);
      ("metrics", [ Alcotest.test_case "serve-metrics" `Quick test_serve_metrics ]) ]
