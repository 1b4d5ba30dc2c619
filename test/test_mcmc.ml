(* Tests for the MCMC library: reproducible RNG, MH correctness against
   exact marginals, proposal mixtures, SampleRank learning, parallel
   execution, and diagnostics. *)

open Factorgraph
open Mcmc

let feq ?(eps = 1e-9) msg a b =
  if abs_float (a -. b) > eps then Alcotest.failf "%s: expected %.12g, got %.12g" msg a b

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create 11 and b = Rng.create 11 in
  let seq r = List.init 20 (fun _ -> Rng.int r 1000) in
  Alcotest.(check (list int)) "same seed same stream" (seq a) (seq b)

let test_rng_split_independent () =
  let r = Rng.create 5 in
  let a = Prng.split r and b = Prng.split r in
  let seq r = List.init 20 (fun _ -> Rng.int r 1000) in
  Alcotest.(check bool) "split streams differ" true (seq a <> seq b)

let test_rng_bounds () =
  let r = Rng.create 1 in
  for _ = 1 to 1000 do
    let x = Rng.int r 7 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 7)
  done;
  Alcotest.(check bool) "log_uniform negative" true (Rng.log_uniform r < 0.)

let test_rng_shuffle_permutation () =
  let r = Rng.create 2 in
  let arr = Array.init 30 Fun.id in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation" (Array.init 30 Fun.id) sorted

(* Regression for the narrow 2×30-bit split seeding: batches of sibling
   streams must not collide on their first draws, for several parent
   seeds. *)
let test_split_siblings_no_first_draw_collision () =
  List.iter
    (fun seed ->
      let parent = Rng.create seed in
      let rngs = Array.init 32 (fun _ -> Prng.split parent) in
      let firsts = Array.to_list (Array.map (fun r -> Rng.int r 1_000_000_000) rngs) in
      Alcotest.(check int)
        (Printf.sprintf "seed %d: 32 distinct first draws" seed)
        32
        (List.length (List.sort_uniq compare firsts));
      let prefixes =
        Array.to_list
          (Array.map (fun r -> List.init 4 (fun _ -> Rng.int r 1_000_000_000)) rngs)
      in
      Alcotest.(check int)
        (Printf.sprintf "seed %d: distinct 4-draw prefixes" seed)
        32
        (List.length (List.sort_uniq compare prefixes)))
    [ 1; 5; 42 ]

(* ------------------------------------------------------------------ *)
(* MH convergence against exact marginals *)

let two_var_graph () =
  let g = Graph.create () in
  let d = Domain.boolean in
  let x = Graph.add_variable g d in
  let y = Graph.add_variable g d in
  ignore (Graph.add_table_factor g ~scope:[| x |] [| 0.; 1.0 |]);
  ignore (Graph.add_table_factor g ~scope:[| y |] [| 0.; 0.5 |]);
  ignore (Graph.add_table_factor g ~scope:[| x; y |] [| 1.5; 0.; 0.; 1.5 |]);
  (g, x, y)

let empirical_marginal rng proposal world v ~burn ~samples ~thin =
  Metropolis.run rng proposal world ~steps:burn;
  let hits = ref 0 in
  for _ = 1 to samples do
    Metropolis.run rng proposal world ~steps:thin;
    if Assignment.get world.Graph_model.assignment v = 1 then incr hits
  done;
  float_of_int !hits /. float_of_int samples

let test_mh_matches_exact () =
  let g, x, _ = two_var_graph () in
  let world = Graph_model.world_of g in
  let exact = (List.assoc x (Exact.marginals g world.assignment)).(1) in
  let rng = Rng.create 42 in
  let est = empirical_marginal rng (Graph_model.flip ()) world x ~burn:2000 ~samples:20_000 ~thin:5 in
  feq ~eps:0.02 "flip proposal converges" exact est

let test_mix_proposal () =
  let g, x, y = two_var_graph () in
  let world = Graph_model.world_of g in
  let exact = (List.assoc x (Exact.marginals g world.assignment)).(1) in
  let rng = Rng.create 45 in
  let p =
    Proposal.mix
      [| (0.5, Graph_model.flip ~vars:[| x |] ()); (0.5, Graph_model.flip ~vars:[| y |] ()) |]
  in
  let est = empirical_marginal rng p world x ~burn:2000 ~samples:20_000 ~thin:5 in
  feq ~eps:0.02 "mixture converges" exact est

let test_restricted_vars_proposal () =
  let g, x, y = two_var_graph () in
  let world = Graph_model.world_of g in
  let rng = Rng.create 46 in
  (* Only allow flips of x: y must never change. *)
  Metropolis.run rng (Graph_model.flip ~vars:[| x |] ()) world ~steps:500;
  Alcotest.(check int) "y untouched" 0 (Assignment.get world.assignment y)

(* ------------------------------------------------------------------ *)
(* SampleRank: learn to label tokens from a lexicon-free truth signal. *)

let test_samplerank_learns () =
  let params = Params.create () in
  let label_domain = Domain.make [ "O"; "B-PER" ] in
  let tokens = [| "Bill"; "saw"; "Ann"; "run"; "Bill" |] in
  let truth = [| 1; 0; 1; 0; 1 |] in
  let { Templates.graph; labels; assignment } =
    Templates.unroll_chain ~params ~label_domain ~tokens ()
  in
  let rng = Rng.create 17 in
  let label_at i = Domain.value label_domain (Assignment.get assignment labels.(i)) in
  (* The features of the factors adjacent to position i with label l there,
     under Templates' feature names: emission, shape, bias, transitions. *)
  let local_features i l =
    let lab j = if j = i then l else label_at j in
    let left = if i > 0 then [ (Templates.transition_feature (lab (i - 1)) l, 1.) ] else [] in
    let right =
      if i + 1 < Array.length tokens then [ (Templates.transition_feature l (lab (i + 1)), 1.) ]
      else []
    in
    [ (Templates.emission_feature tokens.(i) l, 1.);
      (Templates.shape_feature tokens.(i) l, 1.);
      (Templates.bias_feature l, 1.) ]
    @ left @ right
  in
  let position v =
    let idx = ref (-1) in
    Array.iteri (fun i l -> if l = v then idx := i) labels;
    !idx
  in
  let delta_features (v, value) =
    let i = position v in
    local_features i (Domain.value label_domain value)
    @ List.map (fun (k, x) -> (k, -.x)) (local_features i (label_at i))
  in
  let propose r =
    let i = Rng.int r (Array.length labels) in
    (labels.(i), Rng.int r 2)
  in
  let objective_delta (v, value) =
    (* +1 if the change fixes a label, −1 if it breaks one *)
    let target = truth.(position v) in
    let old_v = Assignment.get assignment v in
    let score x = if x = target then 1 else 0 in
    float_of_int (score value - score old_v)
  in
  let spec =
    { Samplerank.propose;
      delta_features;
      delta_objective = objective_delta;
      apply = (fun (v, value) -> Assignment.set assignment v value) }
  in
  let stats = Samplerank.train ~rng ~params ~steps:4000 spec in
  Alcotest.(check bool) "made updates" true (stats.updates > 0);
  (* After training, the learned model's MAP should equal the truth. *)
  let map = Exact.map_assignment graph assignment in
  Array.iteri
    (fun i l ->
      Alcotest.(check int) (Printf.sprintf "token %d labelled correctly" i) truth.(i)
        (Assignment.get map l))
    labels

(* ------------------------------------------------------------------ *)
(* Parallel *)

let test_parallel_map_order () =
  let results = Parallel.map ~n:10 (fun i -> i * i) in
  Alcotest.(check (list int)) "ordered" (List.init 10 (fun i -> i * i)) results

(* A raising job must surface as Job_failed carrying the job's index and
   original exception — not as a bare worker exception or an Option.get
   crash on the unfilled result slot. With no retries requested, the
   attempt count must read 1 (the job ran exactly once). *)
let test_parallel_map_raising_job () =
  match Parallel.map ~n:20 (fun i -> if i = 3 then failwith "boom" else i) with
  | _ -> Alcotest.fail "expected Job_failed"
  | exception Parallel.Job_failed { index = 3; attempts; exn } -> (
    Alcotest.(check int) "single attempt" 1 attempts;
    match exn with
    | Failure msg when msg = "boom" -> ()
    | e -> Alcotest.failf "wrong payload exception: %s" (Printexc.to_string e))
  | exception Parallel.Job_failed { index; _ } ->
    Alcotest.failf "failure attributed to job %d, expected 3" index

(* Supervision, transient-fault side: a job that fails once and then
   succeeds must be absorbed by the retry budget — the map returns normally,
   and the on_retry hook saw exactly the one recovery. *)
let test_parallel_map_transient_retry () =
  let hook_calls = ref [] in
  let failures = Array.make 8 (Atomic.make 0) in
  Array.iteri (fun i _ -> failures.(i) <- Atomic.make 0) failures;
  let results =
    Parallel.map ~retries:2
      ~on_retry:(fun ~index ~attempt _exn -> hook_calls := (index, attempt) :: !hook_calls)
      ~n:8
      (fun i ->
        if i = 5 && Atomic.fetch_and_add failures.(i) 1 = 0 then failwith "transient";
        i * 10)
  in
  Alcotest.(check (list int)) "recovered result present" (List.init 8 (fun i -> i * 10)) results;
  Alcotest.(check (list (pair int int))) "one retry of job 5, first attempt" [ (5, 1) ] !hook_calls

(* Supervision, poison side: a job that fails deterministically must
   exhaust the budget and surface attempts = retries + 1, the signal that
   rescheduling is pointless. *)
let test_parallel_map_poison_job () =
  let runs = Atomic.make 0 in
  match
    Parallel.map ~retries:2 ~n:4 (fun i ->
        if i = 2 then begin
          ignore (Atomic.fetch_and_add runs 1 : int);
          failwith "poison"
        end;
        i)
  with
  | _ -> Alcotest.fail "expected Job_failed"
  | exception Parallel.Job_failed { index; attempts; exn } ->
    Alcotest.(check int) "poison job index" 2 index;
    Alcotest.(check int) "budget exhausted" 3 attempts;
    Alcotest.(check int) "ran once per attempt" 3 (Atomic.get runs);
    (match exn with
    | Failure msg when msg = "poison" -> ()
    | e -> Alcotest.failf "wrong payload exception: %s" (Printexc.to_string e))

(* Sibling domains must stop claiming jobs once a failure is recorded
   instead of burning the rest of the queue. Job 0 fails immediately; every
   other job sleeps long enough for the flag to be visible before any
   worker claims a second round, so the 200-job queue cannot drain. *)
let test_parallel_map_stops_siblings () =
  let executed = Atomic.make 0 in
  (match
     Parallel.map ~n:200 (fun i ->
         if i = 0 then failwith "die";
         ignore (Atomic.fetch_and_add executed 1 : int);
         Unix.sleepf 0.0005)
   with
  | _ -> Alcotest.fail "expected Job_failed"
  | exception Parallel.Job_failed { index = 0; _ } -> ());
  Alcotest.(check bool)
    (Printf.sprintf "queue not drained (%d executed)" (Atomic.get executed))
    true
    (Atomic.get executed < 199)

let test_parallel_chains_reduce_error () =
  (* Averaging c independent chains should not increase squared error; with
     few samples per chain the improvement is large. *)
  let g, x, _ = two_var_graph () in
  let truth = (List.assoc x (Exact.marginals g (Graph.new_assignment g))).(1) in
  let estimate ~chains ~seed =
    let parent = Rng.create seed in
    let rngs = Array.init chains (fun _ -> Prng.split parent) in
    let ests =
      Parallel.map ~n:chains (fun i ->
          let world = Graph_model.world_of g in
          empirical_marginal rngs.(i) (Graph_model.flip ()) world x ~burn:50 ~samples:200 ~thin:2)
    in
    List.fold_left ( +. ) 0. ests /. float_of_int chains
  in
  let sq x = (x -. truth) ** 2. in
  let err1 = List.init 8 (fun s -> sq (estimate ~chains:1 ~seed:(100 + s))) in
  let err8 = List.init 8 (fun s -> sq (estimate ~chains:8 ~seed:(200 + s))) in
  let avg xs = List.fold_left ( +. ) 0. xs /. 8. in
  Alcotest.(check bool) "8 chains better than 1" true (avg err8 < avg err1)

(* ------------------------------------------------------------------ *)
(* Diagnostics *)

let test_diagnostics_basics () =
  feq "mean" 2. (Diagnostics.mean [| 1.; 2.; 3. |]);
  feq "variance" 1. (Diagnostics.variance [| 1.; 2.; 3. |]);
  feq "autocorr lag0" 1. (Diagnostics.autocorrelation [| 1.; 2.; 3.; 4. |] 0);
  feq "constant series" 0. (Diagnostics.autocorrelation [| 2.; 2.; 2. |] 1)

let test_diagnostics_ess () =
  (* A perfectly alternating series has negative lag-1 autocorrelation, so
     ESS ≥ n; a strongly trending one has ESS ≪ n. *)
  let alt = Array.init 100 (fun i -> if i mod 2 = 0 then 1. else -1.) in
  let trend = Array.init 100 (fun i -> float_of_int i) in
  Alcotest.(check bool) "alternating ESS high" true (Diagnostics.effective_sample_size alt >= 99.);
  Alcotest.(check bool) "trending ESS low" true (Diagnostics.effective_sample_size trend < 20.)

(* The ESS as it was before its mean and denominator were hoisted out of
   the lag loop: one full [autocorrelation] per lag, each recomputing the
   mean and the denominator. *)
let reference_ess xs =
  let n = Array.length xs in
  if n < 2 then float_of_int n
  else begin
    let rec sum k acc =
      if k >= n then acc
      else
        let rho = Diagnostics.autocorrelation xs k in
        if rho <= 0. then acc else sum (k + 1) (acc +. rho)
    in
    float_of_int n /. (1. +. (2. *. sum 1 0.))
  end

(* Windows of every shape the scheduler feeds: short, constant, smooth
   random walks, and NaN-free extremes (huge, tiny and subnormal values,
   sized so no sum of squares overflows). *)
let gen_window =
  QCheck.Gen.(
    let scalar =
      oneof
        [ float_range (-1.) 1.;
          map (fun x -> x *. 1e150) (float_range (-1.) 1.);
          map (fun x -> x *. 1e-300) (float_range (-1.) 1.);
          oneofl [ 0.; -0.; 5e-324; 1.; 1e150; -1e150 ] ]
    in
    let walk n =
      map
        (fun steps ->
          let acc = ref 0. in
          Array.of_list (List.map (fun s -> acc := !acc +. s; !acc) steps))
        (list_repeat n (float_range (-1.) 1.))
    in
    int_range 0 80 >>= fun n ->
    oneof [ array_repeat n scalar; map (Array.make n) scalar; walk n ])

let prop_ess_matches_reference =
  QCheck.Test.make ~name:"diagnostics: hoisted ESS equals the per-lag formula bit for bit"
    ~count:500
    (QCheck.make gen_window ~print:(fun w ->
         String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%h") w))))
    (fun w ->
      Int64.equal
        (Int64.bits_of_float (Diagnostics.effective_sample_size w))
        (Int64.bits_of_float (reference_ess w)))

let test_gelman_rubin () =
  let rand = Prng.of_seeds [| 12 |] in
  let noise () = Array.init 500 (fun _ -> Prng.float rand 1.) in
  let same = [ noise (); noise (); noise () ] in
  let rhat_same = Diagnostics.gelman_rubin same in
  Alcotest.(check bool) (Printf.sprintf "agreeing chains ~1 (%.3f)" rhat_same) true
    (rhat_same < 1.05);
  let shifted = [ noise (); Array.map (fun x -> x +. 3.) (noise ()) ] in
  let rhat_diff = Diagnostics.gelman_rubin shifted in
  Alcotest.(check bool) (Printf.sprintf "disagreeing chains >1.1 (%.3f)" rhat_diff) true
    (rhat_diff > 1.1);
  Alcotest.(check bool) "single chain nan" true (Float.is_nan (Diagnostics.gelman_rubin [ noise () ]))

let () =
  Alcotest.run "mcmc"
    [ ("rng",
       [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
         Alcotest.test_case "split" `Quick test_rng_split_independent;
         Alcotest.test_case "bounds" `Quick test_rng_bounds;
         Alcotest.test_case "shuffle" `Quick test_rng_shuffle_permutation;
         Alcotest.test_case "split-no-collision" `Quick test_split_siblings_no_first_draw_collision ]);
      ("metropolis",
       [ Alcotest.test_case "matches-exact" `Slow test_mh_matches_exact;
         Alcotest.test_case "mixture" `Slow test_mix_proposal;
         Alcotest.test_case "restricted-vars" `Quick test_restricted_vars_proposal ]);
      ("samplerank", [ Alcotest.test_case "learns" `Slow test_samplerank_learns ]);
      ("parallel",
       [ Alcotest.test_case "map-order" `Quick test_parallel_map_order;
         Alcotest.test_case "raising-job" `Quick test_parallel_map_raising_job;
         Alcotest.test_case "transient-retry" `Quick test_parallel_map_transient_retry;
         Alcotest.test_case "poison-job" `Quick test_parallel_map_poison_job;
         Alcotest.test_case "failure-stops-siblings" `Quick test_parallel_map_stops_siblings;
         Alcotest.test_case "chains-reduce-error" `Slow test_parallel_chains_reduce_error ]);
      ("diagnostics",
       [ Alcotest.test_case "basics" `Quick test_diagnostics_basics;
         Alcotest.test_case "ess" `Quick test_diagnostics_ess;
         QCheck_alcotest.to_alcotest prop_ess_matches_reference;
         Alcotest.test_case "gelman-rubin" `Quick test_gelman_rubin ]) ]
