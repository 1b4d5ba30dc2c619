(* Tests for the factor-graph library: domains, assignments, parameters,
   graphs, delta scoring, exact enumeration, loopy
   belief propagation, and factor templates. *)

open Factorgraph

let feq ?(eps = 1e-9) msg a b =
  if abs_float (a -. b) > eps then Alcotest.failf "%s: expected %.12g, got %.12g" msg a b

(* ------------------------------------------------------------------ *)
(* Domain *)

let test_domain_basic () =
  let d = Domain.make [ "a"; "b"; "c" ] in
  Alcotest.(check int) "size" 3 (Domain.size d);
  Alcotest.(check string) "value" "b" (Domain.value d 1);
  Alcotest.(check (option int)) "index" (Some 2) (Domain.index_opt d "c");
  Alcotest.(check (option int)) "missing" None (Domain.index_opt d "z")

let test_domain_duplicate () =
  Alcotest.check_raises "duplicate" (Invalid_argument "Domain.make: duplicate value a")
    (fun () -> ignore (Domain.make [ "a"; "a" ]))

(* ------------------------------------------------------------------ *)
(* Assignment *)

let test_assignment_with_values () =
  let a = Assignment.create 3 in
  Assignment.set a 0 5;
  let inside = ref (-1) in
  Assignment.with_values a [ (0, 7); (2, 1) ] (fun () -> inside := Assignment.get a 0);
  Alcotest.(check int) "changed inside" 7 !inside;
  Alcotest.(check int) "restored" 5 (Assignment.get a 0);
  Alcotest.(check int) "restored other" 0 (Assignment.get a 2)

let test_assignment_restore_on_raise () =
  let a = Assignment.create 2 in
  (try Assignment.with_values a [ (1, 9) ] (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check int) "restored after raise" 0 (Assignment.get a 1)

(* ------------------------------------------------------------------ *)
(* Params *)

let test_params () =
  let p = Params.create () in
  Params.set p "x" 2.;
  Params.update p "y" 0.5;
  feq "dot" 2.5 (Params.dot p [ ("x", 1.); ("y", 1.); ("z", 10.) ]);
  Params.update_sparse p [ ("x", 1.); ("z", 2.) ] ~scale:(-1.);
  feq "after update" 1. (Params.get p "x");
  feq "z created" (-2.) (Params.get p "z");
  Params.set p "x" 0.;
  Alcotest.(check int) "zero weights dropped" 2 (Params.cardinal p)

(* ------------------------------------------------------------------ *)
(* Graph construction and scoring *)

(* Two binary variables with a pairwise table and singleton biases; small
   enough to verify by hand. *)
let two_var_graph () =
  let g = Graph.create () in
  let d = Domain.boolean in
  let x = Graph.add_variable g d in
  let y = Graph.add_variable g d in
  (* bias(x=true)=1.0, bias(y=true)=0.5, pair rewards agreement by 2.0 *)
  ignore (Graph.add_table_factor g ~scope:[| x |] [| 0.; 1.0 |]);
  ignore (Graph.add_table_factor g ~scope:[| y |] [| 0.; 0.5 |]);
  let pair = Graph.add_table_factor g ~scope:[| x; y |] [| 2.0; 0.; 0.; 2.0 |] in
  (g, x, y, pair)

let test_graph_scoring () =
  let g, x, y, _ = two_var_graph () in
  let a = Graph.new_assignment g in
  feq "world (f,f)" 2.0 (Graph.log_score g a);
  Assignment.set a x 1;
  feq "world (t,f)" 1.0 (Graph.log_score g a);
  Assignment.set a y 1;
  feq "world (t,t)" 3.5 (Graph.log_score g a)

let test_graph_delta_score () =
  let g, x, y, _ = two_var_graph () in
  let a = Graph.new_assignment g in
  let full_delta changes =
    let before = Graph.log_score g a in
    Assignment.with_values a changes (fun () -> Graph.log_score g a -. before)
  in
  List.iter
    (fun changes ->
      feq "delta = full difference" (full_delta changes) (Graph.delta_log_score g a changes))
    [ [ (x, 1) ]; [ (y, 1) ]; [ (x, 1); (y, 1) ]; [ (x, 0) ] ]

(* The single-change fast path of [touched_factors] returns the adjacency
   list directly; that is only sound if adjacency lists are duplicate-free,
   including for factors whose scope mentions a variable twice. *)
let test_graph_touched_factors_fast_path () =
  let g = Graph.create () in
  let x = Graph.add_variable g Domain.boolean in
  let y = Graph.add_variable g Domain.boolean in
  let self = Graph.add_factor g ~scope:[| x; x |] (fun _ -> 1.) in
  let pair = Graph.add_factor g ~scope:[| x; y |] (fun _ -> 1.) in
  let sorted l = List.sort compare l in
  Alcotest.(check (list int)) "duplicate scope registered once" [ self; pair ]
    (sorted (Graph.touched_factors g [ (x, 1) ]));
  Alcotest.(check (list int)) "single-var y" [ pair ] (Graph.touched_factors g [ (y, 1) ]);
  Alcotest.(check (list int)) "fast path agrees with multi-change path"
    (sorted (Graph.touched_factors g [ (x, 1) ]))
    (sorted (Graph.touched_factors g [ (x, 1); (x, 0) ]));
  Alcotest.(check (list int)) "multi-change dedups across vars" [ self; pair ]
    (sorted (Graph.touched_factors g [ (x, 1); (y, 0) ]))

let test_graph_observed () =
  let g = Graph.create () in
  let d = Domain.make [ "p"; "q"; "r" ] in
  let o = Graph.add_variable ~observed:true g d in
  let h = Graph.add_variable g d in
  Alcotest.(check bool) "observed" true (Graph.is_observed g o);
  Alcotest.(check bool) "hidden" false (Graph.is_observed g h);
  Alcotest.(check int) "state space ignores observed" 3 (Exact.state_space_size g)

let test_table_factor_bad_size () =
  let g = Graph.create () in
  let v = Graph.add_variable g Domain.boolean in
  Alcotest.check_raises "bad table"
    (Invalid_argument "Graph.add_table_factor: table size 3, expected 2")
    (fun () -> ignore (Graph.add_table_factor g ~scope:[| v |] [| 0.; 1.; 2. |]))

(* Property: delta_log_score equals the full score difference on random
   graphs and random multi-variable changes. *)
let prop_delta_score =
  QCheck.Test.make ~name:"graph: delta score = full score difference" ~count:100
    QCheck.(triple (int_range 2 5) (int_range 1 6) (int_range 0 10_000))
    (fun (n_vars, n_factors, seed) ->
      let rand = Prng.of_seeds [| seed |] in
      let g = Graph.create () in
      let doms =
        Array.init n_vars (fun _ ->
            Domain.make (List.init (2 + Prng.int rand 2) (Printf.sprintf "v%d")))
      in
      let vars = Array.map (fun d -> Graph.add_variable g d) doms in
      for _ = 1 to n_factors do
        let arity = 1 + Prng.int rand 2 in
        let scope = Array.init arity (fun _ -> vars.(Prng.int rand n_vars)) in
        let size =
          Array.fold_left (fun acc v -> acc * Domain.size (Graph.domain g v)) 1 scope
        in
        let table = Array.init size (fun _ -> Prng.float rand 4. -. 2.) in
        ignore (Graph.add_table_factor g ~scope table)
      done;
      let a = Graph.new_assignment g in
      Array.iter
        (fun v -> Assignment.set a v (Prng.int rand (Domain.size (Graph.domain g v))))
        vars;
      let n_changes = 1 + Prng.int rand n_vars in
      let changes =
        List.init n_changes (fun _ ->
            let v = vars.(Prng.int rand n_vars) in
            (v, Prng.int rand (Domain.size (Graph.domain g v))))
      in
      (* de-duplicate variables: with_values restores in order, so repeated
         vars are fine, but delta semantics require last-write-wins — keep
         first occurrence only for a clean spec. *)
      let seen = Hashtbl.create 4 in
      let changes =
        List.filter
          (fun (v, _) -> if Hashtbl.mem seen v then false else (Hashtbl.add seen v (); true))
          changes
      in
      let before = Graph.log_score g a in
      let after = Assignment.with_values a changes (fun () -> Graph.log_score g a) in
      abs_float (Graph.delta_log_score g a changes -. (after -. before)) < 1e-9)

(* ------------------------------------------------------------------ *)
(* Exact inference *)

let test_exact_partition () =
  let g, _, _, _ = two_var_graph () in
  let a = Graph.new_assignment g in
  (* worlds: (f,f)=2.0, (t,f)=1.0, (f,t)=0.5, (t,t)=3.5 *)
  let expected = log (exp 2. +. exp 1. +. exp 0.5 +. exp 3.5) in
  feq ~eps:1e-9 "partition" expected (Exact.log_partition g a)

let test_exact_marginals () =
  let g, x, _, _ = two_var_graph () in
  let a = Graph.new_assignment g in
  let z = exp 2. +. exp 1. +. exp 0.5 +. exp 3.5 in
  let p_x_true = (exp 1. +. exp 3.5) /. z in
  let marg = List.assoc x (Exact.marginals g a) in
  feq ~eps:1e-9 "p(x=true)" p_x_true marg.(1);
  feq ~eps:1e-9 "normalized" 1.0 (marg.(0) +. marg.(1))

let test_exact_event () =
  let g, x, y, _ = two_var_graph () in
  let a = Graph.new_assignment g in
  let z = exp 2. +. exp 1. +. exp 0.5 +. exp 3.5 in
  let p_agree = (exp 2. +. exp 3.5) /. z in
  feq ~eps:1e-9 "p(x=y)" p_agree
    (Exact.event_probability g a (fun a -> Assignment.get a x = Assignment.get a y))

let test_exact_map () =
  let g, x, y, _ = two_var_graph () in
  let a = Graph.new_assignment g in
  let m = Exact.map_assignment g a in
  Alcotest.(check (pair int int)) "MAP is (t,t)" (1, 1) (Assignment.get m x, Assignment.get m y)

let test_exact_too_large () =
  let g = Graph.create () in
  let d = Domain.make (List.init 10 (Printf.sprintf "v%d")) in
  for _ = 1 to 10 do
    ignore (Graph.add_variable g d)
  done;
  let a = Graph.new_assignment g in
  match Exact.log_partition ~budget:1000 g a with
  | exception Exact.Too_large _ -> ()
  | _ -> Alcotest.fail "expected Too_large"

let test_exact_observed_clamped () =
  let g = Graph.create () in
  let d = Domain.boolean in
  let o = Graph.add_variable ~observed:true g d in
  let h = Graph.add_variable g d in
  (* strong agreement factor *)
  ignore (Graph.add_table_factor g ~scope:[| o; h |] [| 3.; 0.; 0.; 3. |]);
  let a = Graph.new_assignment g in
  Assignment.set a o 1;
  let marg = List.assoc h (Exact.marginals g a) in
  feq ~eps:1e-9 "h follows clamped o" (exp 3. /. (exp 3. +. 1.)) marg.(1)

(* ------------------------------------------------------------------ *)
(* Belief propagation *)

let test_bp_exact_on_tree () =
  (* A 4-node chain with random-ish tables: BP must match enumeration. *)
  let g = Graph.create () in
  let d = Domain.make [ "a"; "b"; "c" ] in
  let vars = Array.init 4 (fun _ -> Graph.add_variable g d) in
  let rand = Prng.of_seeds [| 3 |] in
  Array.iter
    (fun v ->
      ignore
        (Graph.add_table_factor g ~scope:[| v |]
           (Array.init 3 (fun _ -> Prng.float rand 2. -. 1.))))
    vars;
  for i = 0 to 2 do
    ignore
      (Graph.add_table_factor g ~scope:[| vars.(i); vars.(i + 1) |]
         (Array.init 9 (fun _ -> Prng.float rand 2. -. 1.)))
  done;
  let a = Graph.new_assignment g in
  let bp = Bp.run ~max_iters:200 ~damping:0. g a in
  Alcotest.(check bool) "converged" true bp.converged;
  let exact = Exact.marginals g a in
  List.iter
    (fun (v, approx) ->
      let truth = List.assoc v exact in
      Array.iteri (fun i p -> feq ~eps:1e-5 (Printf.sprintf "var %d val %d" v i) truth.(i) p) approx)
    bp.marginals

let test_bp_loopy_runs () =
  (* A frustrated loop: BP may or may not converge but must return sane
     distributions. *)
  let g = Graph.create () in
  let d = Domain.boolean in
  let vars = Array.init 3 (fun _ -> Graph.add_variable g d) in
  let disagree = [| 0.; 2.; 2.; 0. |] in
  ignore (Graph.add_table_factor g ~scope:[| vars.(0); vars.(1) |] disagree);
  ignore (Graph.add_table_factor g ~scope:[| vars.(1); vars.(2) |] disagree);
  ignore (Graph.add_table_factor g ~scope:[| vars.(2); vars.(0) |] disagree);
  let a = Graph.new_assignment g in
  let bp = Bp.run ~max_iters:50 g a in
  List.iter
    (fun (_, p) ->
      feq ~eps:1e-6 "normalized" 1.0 (Array.fold_left ( +. ) 0. p);
      Array.iter (fun x -> Alcotest.(check bool) "in [0,1]" true (x >= 0. && x <= 1.)) p)
    bp.marginals

(* ------------------------------------------------------------------ *)
(* Templates *)

(* Every factor touches at least one variable, so the factors adjacent to
   a change of every variable are all of them. *)
let num_factors g = List.length (Graph.touched_factors g (List.init (Graph.num_variables g) (fun v -> (v, 0))))

let test_template_counts () =
  let params = Params.create () in
  let label_domain = Domain.make [ "O"; "B-PER" ] in
  let tokens = [| "IBM"; "said"; "IBM" |] in
  let plain = Templates.unroll_chain ~params ~label_domain ~tokens () in
  (* 3 emissions + 3 biases + 2 transitions *)
  Alcotest.(check int) "linear chain factors" 8 (num_factors plain.graph);
  let skip = Templates.unroll_chain ~skip_edges:true ~params ~label_domain ~tokens () in
  Alcotest.(check int) "one skip edge added" 9 (num_factors skip.graph)

let test_template_skip_semantics () =
  let params = Params.create () in
  Params.set params (Templates.skip_feature ~same:true) 1.5;
  let label_domain = Domain.make [ "O"; "B-PER" ] in
  let tokens = [| "IBM"; "IBM" |] in
  let { Templates.graph; labels; assignment } =
    Templates.unroll_chain ~skip_edges:true ~params ~label_domain ~tokens ()
  in
  (* Agreeing labels pick up the skip:same weight. *)
  let s_same = Graph.log_score graph assignment in
  Assignment.set assignment labels.(1) 1;
  let s_diff = Graph.log_score graph assignment in
  feq "skip rewards agreement" 1.5 (s_same -. s_diff)

(* ------------------------------------------------------------------ *)
(* Logspace *)

let test_logspace () =
  feq "lse of single" 3. (Logspace.log_sum_exp [| 3. |]);
  feq "lse empty" neg_infinity (Logspace.log_sum_exp [||]);
  feq ~eps:1e-12 "lse stable" (1000. +. log 2.) (Logspace.log_sum_exp [| 1000.; 1000. |]);
  let p = Logspace.normalize_log [| 0.; 0. |] in
  feq "normalize" 0.5 p.(0)

let prop_logsumexp_monotone =
  QCheck.Test.make ~name:"logspace: lse ≥ max" ~count:200
    QCheck.(list_of_size Gen.(1 -- 8) (float_range (-50.) 50.))
    (fun xs ->
      let arr = Array.of_list xs in
      Logspace.log_sum_exp arr >= Array.fold_left max neg_infinity arr -. 1e-9)


(* ------------------------------------------------------------------ *)
(* Forward-backward on chains *)

let random_chain_model rand n l =
  let node_t = Array.init n (fun _ -> Array.init l (fun _ -> Prng.float rand 2. -. 1.)) in
  let edge_t =
    Array.init (max 0 (n - 1)) (fun _ ->
        Array.init l (fun _ -> Array.init l (fun _ -> Prng.float rand 2. -. 1.)))
  in
  { Chain_fb.length = n; labels = l;
    node = (fun i x -> node_t.(i).(x));
    edge = (fun i x y -> edge_t.(i).(x).(y)) }

(* Brute-force reference over all label paths. *)
let enumerate_chain (m : Chain_fb.model) =
  let paths = ref [] in
  let rec go acc i =
    if i = m.length then paths := List.rev acc :: !paths
    else
      for x = 0 to m.labels - 1 do
        go (x :: acc) (i + 1)
      done
  in
  go [] 0;
  let score path =
    let arr = Array.of_list path in
    let s = ref 0. in
    Array.iteri (fun i x -> s := !s +. m.node i x) arr;
    for i = 0 to m.length - 2 do
      s := !s +. m.edge i arr.(i) arr.(i + 1)
    done;
    !s
  in
  List.map (fun p -> (Array.of_list p, score p)) !paths

let test_chain_fb_partition () =
  let rand = Prng.of_seeds [| 5 |] in
  for _ = 1 to 10 do
    let m = random_chain_model rand (2 + Prng.int rand 4) (2 + Prng.int rand 2) in
    let all = enumerate_chain m in
    let z = Logspace.log_sum_exp (Array.of_list (List.map snd all)) in
    feq ~eps:1e-9 "partition matches enumeration" z (Chain_fb.log_partition m)
  done

let test_chain_fb_marginals () =
  let rand = Prng.of_seeds [| 6 |] in
  let m = random_chain_model rand 5 3 in
  let all = enumerate_chain m in
  let z = Logspace.log_sum_exp (Array.of_list (List.map snd all)) in
  let marg = Chain_fb.marginals m in
  for i = 0 to 4 do
    for x = 0 to 2 do
      let p =
        List.fold_left
          (fun acc (path, s) -> if path.(i) = x then acc +. exp (s -. z) else acc)
          0. all
      in
      feq ~eps:1e-9 (Printf.sprintf "marginal (%d,%d)" i x) p marg.(i).(x)
    done
  done

let test_chain_fb_pairwise () =
  let rand = Prng.of_seeds [| 7 |] in
  let m = random_chain_model rand 4 2 in
  let all = enumerate_chain m in
  let z = Logspace.log_sum_exp (Array.of_list (List.map snd all)) in
  let joint = Chain_fb.pairwise_marginals m 1 in
  for x = 0 to 1 do
    for y = 0 to 1 do
      let p =
        List.fold_left
          (fun acc (path, s) ->
            if path.(1) = x && path.(2) = y then acc +. exp (s -. z) else acc)
          0. all
      in
      feq ~eps:1e-9 (Printf.sprintf "pairwise (%d,%d)" x y) p joint.(x).(y)
    done
  done

let test_chain_fb_agrees_with_bp_on_chain () =
  (* A chain is a tree: BP must agree with forward-backward. Build the same
     model both ways. *)
  let rand = Prng.of_seeds [| 9 |] in
  let m = random_chain_model rand 4 3 in
  let g = Graph.create () in
  let d = Domain.make [ "a"; "b"; "c" ] in
  let vars = Array.init 4 (fun _ -> Graph.add_variable g d) in
  Array.iteri
    (fun i v ->
      ignore (Graph.add_table_factor g ~scope:[| v |] (Array.init 3 (fun x -> m.Chain_fb.node i x))))
    vars;
  for i = 0 to 2 do
    ignore
      (Graph.add_table_factor g ~scope:[| vars.(i); vars.(i + 1) |]
         (Array.init 9 (fun k -> m.Chain_fb.edge i (k / 3) (k mod 3))))
  done;
  let bp = Bp.run ~damping:0. ~max_iters:100 g (Graph.new_assignment g) in
  let fb = Chain_fb.marginals m in
  List.iter
    (fun (v, dist) ->
      let i = ref (-1) in
      Array.iteri (fun k u -> if u = v then i := k) vars;
      Array.iteri (fun x p -> feq ~eps:1e-6 "bp = fb" fb.(!i).(x) p) dist)
    bp.Bp.marginals


let test_chain_fb_sample_frequencies () =
  let rand = Prng.of_seeds [| 11 |] in
  let m = random_chain_model rand 4 2 in
  let marg = Chain_fb.marginals m in
  let counts = Array.make_matrix 4 2 0 in
  let draws = 40_000 in
  for _ = 1 to draws do
    let path = Chain_fb.sample m rand in
    Array.iteri (fun i x -> counts.(i).(x) <- counts.(i).(x) + 1) path
  done;
  for i = 0 to 3 do
    for x = 0 to 1 do
      feq ~eps:0.01
        (Printf.sprintf "sampled frequency (%d,%d)" i x)
        marg.(i).(x)
        (float_of_int counts.(i).(x) /. float_of_int draws)
    done
  done


let test_word_shape () =
  List.iter
    (fun (s, expected) ->
      Alcotest.(check string) ("shape of " ^ s) expected (Templates.word_shape s))
    [ ("Boston", "Xx"); ("IBM", "X"); ("said", "x"); ("3rd", "dx"); ("U.S.", "X.X.");
      ("McCallum", "XxXx"); ("", ""); ("42", "d") ]

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "factorgraph"
    [ ("domain",
       [ Alcotest.test_case "basic" `Quick test_domain_basic;
         Alcotest.test_case "duplicate" `Quick test_domain_duplicate ]);
      ("assignment",
       [ Alcotest.test_case "with-values" `Quick test_assignment_with_values;
         Alcotest.test_case "restore-on-raise" `Quick test_assignment_restore_on_raise ]);
      ("params", [ Alcotest.test_case "basic" `Quick test_params ]);
      ("graph",
       [ Alcotest.test_case "scoring" `Quick test_graph_scoring;
         Alcotest.test_case "delta-score" `Quick test_graph_delta_score;
         Alcotest.test_case "observed" `Quick test_graph_observed;
         Alcotest.test_case "touched-factors-fast-path" `Quick test_graph_touched_factors_fast_path;
         Alcotest.test_case "table-size" `Quick test_table_factor_bad_size;
         qc prop_delta_score ]);
      ("exact",
       [ Alcotest.test_case "partition" `Quick test_exact_partition;
         Alcotest.test_case "marginals" `Quick test_exact_marginals;
         Alcotest.test_case "event" `Quick test_exact_event;
         Alcotest.test_case "map" `Quick test_exact_map;
         Alcotest.test_case "too-large" `Quick test_exact_too_large;
         Alcotest.test_case "observed-clamped" `Quick test_exact_observed_clamped ]);
      ("bp",
       [ Alcotest.test_case "exact-on-tree" `Quick test_bp_exact_on_tree;
         Alcotest.test_case "loopy-sane" `Quick test_bp_loopy_runs ]);
      ("templates",
       [ Alcotest.test_case "counts" `Quick test_template_counts;
         Alcotest.test_case "skip-semantics" `Quick test_template_skip_semantics;
         Alcotest.test_case "word-shape" `Quick test_word_shape ]);
      ("logspace",
       [ Alcotest.test_case "basics" `Quick test_logspace; qc prop_logsumexp_monotone ]);
      ("chain-fb",
       [ Alcotest.test_case "partition" `Quick test_chain_fb_partition;
         Alcotest.test_case "marginals" `Quick test_chain_fb_marginals;
         Alcotest.test_case "pairwise" `Quick test_chain_fb_pairwise;
         Alcotest.test_case "agrees-with-bp" `Quick test_chain_fb_agrees_with_bp_on_chain;
         Alcotest.test_case "ffbs-sampling" `Slow test_chain_fb_sample_frequencies ]) ]
