(* Tests for the information-extraction library: BIO labels, the synthetic
   corpus, the TOKEN relation, the lazy skip-chain CRF (validated against the
   materialized template graph), proposal distributions, SampleRank
   training, and entity resolution (validated against exact enumeration over
   partitions). *)

open Ie

let feq ?(eps = 1e-9) msg a b =
  if abs_float (a -. b) > eps then Alcotest.failf "%s: expected %.12g, got %.12g" msg a b

(* BIO validity of a whole sequence: every transition valid. *)
let valid_sequence ls =
  let rec go prev = function
    | [] -> true
    | l :: rest -> Labels.valid_transition ~prev l && go (Some l) rest
  in
  go None ls

(* ------------------------------------------------------------------ *)
(* Labels *)

let test_labels_roundtrip () =
  Array.iter
    (fun l ->
      Alcotest.(check bool) (Labels.to_string l) true (Labels.of_string (Labels.to_string l) = l))
    Labels.all;
  Alcotest.(check int) "nine labels" 9 (Array.length Labels.all);
  Alcotest.(check int) "domain size" 9 (Factorgraph.Domain.size Labels.domain)

let test_labels_index_roundtrip () =
  Array.iter
    (fun l -> Alcotest.(check bool) "index roundtrip" true (Labels.of_index (Labels.index l) = l))
    Labels.all

let test_labels_transitions () =
  Alcotest.(check bool) "I-PER after B-PER" true
    (Labels.valid_transition ~prev:(Some (Labels.B Per)) (Labels.I Per));
  Alcotest.(check bool) "I-PER after I-PER" true
    (Labels.valid_transition ~prev:(Some (Labels.I Per)) (Labels.I Per));
  Alcotest.(check bool) "I-ORG after B-PER invalid" false
    (Labels.valid_transition ~prev:(Some (Labels.B Per)) (Labels.I Org));
  Alcotest.(check bool) "I after O invalid" false
    (Labels.valid_transition ~prev:(Some Labels.O) (Labels.I Loc));
  Alcotest.(check bool) "I at start invalid" false
    (Labels.valid_transition ~prev:None (Labels.I Misc));
  Alcotest.(check bool) "B anywhere" true (Labels.valid_transition ~prev:None (Labels.B Org))

let test_labels_segments () =
  let seq = [| Labels.B Per; Labels.I Per; Labels.O; Labels.B Org; Labels.B Loc; Labels.I Loc |] in
  Alcotest.(check bool) "segments" true
    (Labels.segments seq = [ (0, 2, Labels.Per); (3, 4, Labels.Org); (4, 6, Labels.Loc) ])

let test_labels_valid_sequence () =
  Alcotest.(check bool) "hillary clinton" true
    (valid_sequence [ Labels.B Per; Labels.O; Labels.B Per; Labels.I Per; Labels.O ]);
  Alcotest.(check bool) "orphan I" false (valid_sequence [ Labels.O; Labels.I Per ])

(* ------------------------------------------------------------------ *)
(* Corpus *)

let test_corpus_deterministic () =
  let d1 = Corpus.generate ~seed:9 () and d2 = Corpus.generate ~seed:9 () in
  Alcotest.(check bool) "same seed, same corpus" true (d1 = d2);
  let d3 = Corpus.generate ~seed:10 () in
  Alcotest.(check bool) "different seed differs" true (d1 <> d3)

let test_corpus_truth_valid_bio () =
  List.iter
    (fun { Corpus.tokens; _ } ->
      let seq = Array.to_list (Array.map (fun t -> t.Corpus.truth) tokens) in
      if not (valid_sequence seq) then Alcotest.fail "invalid truth BIO sequence")
    (Corpus.generate ~seed:4 ())

let test_corpus_target_size () =
  let docs = Corpus.generate_tokens ~seed:1 ~n_tokens:3000 in
  let n = Corpus.total_tokens docs in
  Alcotest.(check bool) "at least target" true (n >= 3000);
  Alcotest.(check bool) "not absurdly more" true (n < 3000 + 400)

let test_corpus_has_ambiguity_and_repeats () =
  let docs = Corpus.generate ~params:{ Corpus.default_params with n_docs = 200 } ~seed:2 () in
  let as_org = ref false and as_loc = ref false and repeats = ref false in
  List.iter
    (fun { Corpus.tokens; _ } ->
      let seen = Hashtbl.create 16 in
      Array.iter
        (fun { Corpus.string; truth } ->
          if Array.exists (( = ) string) Lexicon.ambiguous_city_orgs then begin
            match truth with
            | Labels.B Org -> as_org := true
            | Labels.B Loc -> as_loc := true
            | _ -> ()
          end;
          if Lexicon.is_capitalized string then begin
            if Hashtbl.mem seen string then repeats := true;
            Hashtbl.replace seen string ()
          end)
        tokens)
    docs;
  Alcotest.(check bool) "city as ORG somewhere" true !as_org;
  Alcotest.(check bool) "city as LOC somewhere" true !as_loc;
  Alcotest.(check bool) "capitalized strings repeat in-doc" true !repeats

(* ------------------------------------------------------------------ *)
(* Token table *)

let test_token_table_load () =
  let docs = Corpus.generate ~params:{ Corpus.default_params with n_docs = 3 } ~seed:6 () in
  let db = Relational.Database.create () in
  let t = Token_table.load db docs in
  Alcotest.(check int) "all tokens loaded" (Corpus.total_tokens docs) (Relational.Table.cardinal t);
  (* Every LABEL starts at "O". *)
  let res = Relational.Eval.eval db @@ Relational.Sql.parse "SELECT COUNT(*) FROM TOKEN WHERE LABEL='O'" in
  Alcotest.(check bool) "labels initialized to O" true
    (Relational.Bag.mem res.Relational.Eval.bag (Relational.Row.make [ Relational.Value.Int (Corpus.total_tokens docs) ]))

(* The model reads TOKEN through its raw columns only: a boxed TOKEN is
   refused rather than decoded row by row. *)
let test_crf_requires_columnar () =
  let docs = Corpus.generate ~params:{ Corpus.default_params with n_docs = 2 } ~seed:6 () in
  let db = Relational.Database.create () in
  ignore (Token_table.load ~storage:`Boxed db docs : Relational.Table.t);
  match Crf.create ~params:(Crf.default_params ()) (Core.World.create db) with
  | _ -> Alcotest.fail "Crf.create accepted a boxed TOKEN"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* CRF: the lazy scorer must agree with the materialized template graph. *)

let mk_crf ?(skip_edges = true) ?(params = Crf.default_params ()) docs =
  let db = Relational.Database.create () in
  ignore (Token_table.load db docs : Relational.Table.t);
  let world = Core.World.create db in
  (world, Crf.create ~skip_edges ~params world)

let one_doc strings truths =
  [ { Corpus.id = 0;
      tokens =
        Array.of_list
          (List.map2 (fun s l -> { Corpus.string = s; truth = l }) strings truths) } ]

let test_crf_matches_template_graph () =
  (* All repeated strings capitalized so both representations build the same
     skip edges. *)
  let strings = [ "Bill"; "saw"; "IBM"; "and"; "IBM"; "with"; "Bill" ] in
  let truths =
    [ Labels.B Per; Labels.O; Labels.B Org; Labels.O; Labels.B Org; Labels.O; Labels.B Per ]
  in
  let params = Crf.default_params () in
  let _, crf = mk_crf ~params (one_doc strings truths) in
  let { Factorgraph.Templates.graph; labels; assignment } =
    Factorgraph.Templates.unroll_chain ~skip_edges:true ~params ~label_domain:Labels.domain
      ~tokens:(Array.of_list strings) ()
  in
  (* Both start all-O (domain index of "O" is 0). *)
  let rng = Mcmc.Rng.create 31 in
  for _ = 1 to 300 do
    let pos = Mcmc.Rng.int rng (List.length strings) in
    let l = Mcmc.Rng.pick rng Labels.all in
    let d_crf = Crf.delta_log_score crf ~pos l in
    let d_graph =
      Factorgraph.Graph.delta_log_score graph assignment [ (labels.(pos), Labels.index l) ]
    in
    feq ~eps:1e-9 (Printf.sprintf "delta at %d -> %s" pos (Labels.to_string l)) d_graph d_crf;
    (* Occasionally commit the change in both representations. *)
    if Mcmc.Rng.bool rng then begin
      Crf.set_label_local crf ~pos l;
      Factorgraph.Assignment.set assignment labels.(pos) (Labels.index l)
    end
  done

let test_crf_write_through () =
  let docs = one_doc [ "Bill"; "ran" ] [ Labels.B Per; Labels.O ] in
  let world, crf = mk_crf docs in
  Crf.set_label crf ~pos:0 (Labels.B Per);
  let v = Core.World.get_field world (Token_table.field_of_tok 0) in
  Alcotest.(check string) "db follows label" "B-PER" (Relational.Value.to_string v);
  Alcotest.(check bool) "delta pending" true
    (not (Relational.Delta.is_empty (Core.World.pending_delta world)))

let test_crf_accuracy_truth () =
  let docs = one_doc [ "Bill"; "ran" ] [ Labels.B Per; Labels.O ] in
  let _, crf = mk_crf docs in
  feq "initial accuracy" 0.5 (Crf.accuracy crf);
  Crf.set_label crf ~pos:0 (Labels.B Per);
  feq "truth accuracy" 1.0 (Crf.accuracy crf)

let test_crf_skip_partners () =
  let docs =
    one_doc
      [ "IBM"; "the"; "IBM"; "the"; "IBM" ]
      [ Labels.B Org; Labels.O; Labels.B Org; Labels.O; Labels.B Org ]
  in
  let _, crf = mk_crf docs in
  Alcotest.(check int) "IBM has two partners" 2 (Array.length (Crf.skip_partners crf 0));
  Alcotest.(check int) "lowercase has none" 0 (Array.length (Crf.skip_partners crf 1))

let test_crf_delta_features_consistent () =
  (* Params.dot of delta_features must equal delta_log_score. *)
  let docs =
    one_doc [ "Boston"; "played"; "Boston" ] [ Labels.B Org; Labels.O; Labels.B Org ]
  in
  let params = Crf.default_params () in
  let _, crf = mk_crf ~params docs in
  let rng = Mcmc.Rng.create 8 in
  for _ = 1 to 100 do
    let pos = Mcmc.Rng.int rng 3 in
    let l = Mcmc.Rng.pick rng Labels.all in
    let from_features = Factorgraph.Params.dot params (Crf.delta_features crf ~pos l) in
    feq ~eps:1e-9 "features vs score" (Crf.delta_log_score crf ~pos l) from_features;
    if Mcmc.Rng.bool rng then Crf.set_label_local crf ~pos l
  done

(* More mentions of one capitalized string than [max_skip_degree + 1]
   (21): every skip factor must be seen from both of its ends, or two
   single flips score differently depending on their order. *)
let test_crf_skip_cap_symmetric () =
  let n = 23 in
  let docs = one_doc (List.init n (fun _ -> "Bill")) (List.init n (fun _ -> Labels.B Per)) in
  let _, crf = mk_crf docs in
  for p = 0 to n - 1 do
    let partners = Crf.skip_partners crf p in
    Alcotest.(check bool) "degree capped" true (Array.length partners <= 20);
    Array.iter
      (fun j ->
        if not (Array.mem p (Crf.skip_partners crf j)) then
          Alcotest.failf "skip factor (%d, %d) is missing from %d's partners" p j j)
      partners
  done;
  let check_pair a b la lb =
    let da = Crf.delta_log_score crf ~pos:a la in
    Crf.set_label_local crf ~pos:a la;
    let a_then_b = da +. Crf.delta_log_score crf ~pos:b lb in
    Crf.set_label_local crf ~pos:a Labels.O;
    let db = Crf.delta_log_score crf ~pos:b lb in
    Crf.set_label_local crf ~pos:b lb;
    let b_then_a = db +. Crf.delta_log_score crf ~pos:a la in
    Crf.set_label_local crf ~pos:b Labels.O;
    let joint = Crf.delta_log_score_multi crf [ (a, la); (b, lb) ] in
    let what = Printf.sprintf "flips at %d and %d" a b in
    feq (what ^ ": either order") a_then_b b_then_a;
    feq (what ^ ": joint") a_then_b joint
  in
  check_pair 0 22 (Labels.B Per) (Labels.B Per);
  check_pair 0 21 (Labels.B Per) (Labels.I Per);
  check_pair 3 22 (Labels.B Org) (Labels.B Per);
  check_pair 21 22 (Labels.B Loc) (Labels.B Loc)

(* The name-keyed scorer the compiled CRF replaced: every feature name
   formatted, every weight looked up by name, summed in the same order.
   The compiled model must reproduce it bit for bit. *)
module Reference = struct
  open Factorgraph

  let label_s crf i = Labels.to_string (Crf.label crf i)
  let same_doc crf i j = Crf.doc_of crf i = Crf.doc_of crf j

  let local_score params crf ~pos l =
    let acc = ref [] in
    let add k = acc := (k, 1.) :: !acc in
    let s = Crf.token_string crf pos and ls = Labels.to_string l in
    add (Templates.emission_feature s ls);
    add (Templates.shape_feature s ls);
    add (Templates.bias_feature ls);
    if pos > 0 && same_doc crf (pos - 1) pos then
      add (Templates.transition_feature (label_s crf (pos - 1)) ls);
    if pos + 1 < Crf.n_tokens crf && same_doc crf pos (pos + 1) then
      add (Templates.transition_feature ls (label_s crf (pos + 1)));
    Array.iter
      (fun j -> add (Templates.skip_feature ~same:(Crf.label crf j = l)))
      (Crf.skip_partners crf pos);
    Params.dot params !acc

  let delta params crf ~pos l =
    if l = Crf.label crf pos then 0.
    else local_score params crf ~pos l -. local_score params crf ~pos (Crf.label crf pos)

  let node params crf ~pos l =
    let s = Crf.token_string crf pos and ls = Labels.to_string l in
    Params.get params (Templates.emission_feature s ls)
    +. Params.get params (Templates.shape_feature s ls)
    +. Params.get params (Templates.bias_feature ls)

  let edge params l l' =
    Params.get params (Templates.transition_feature (Labels.to_string l) (Labels.to_string l'))

  (* Same constructors as the CRF's factor instances, so the Hashtbl
     below enumerates them in the same order. *)
  type factor = F_local of int | F_trans of int | F_skip of int * int

  let touched crf positions =
    let seen = Hashtbl.create 32 in
    let add f = if not (Hashtbl.mem seen f) then Hashtbl.replace seen f () in
    List.iter
      (fun pos ->
        add (F_local pos);
        if pos > 0 && same_doc crf (pos - 1) pos then add (F_trans (pos - 1));
        if pos + 1 < Crf.n_tokens crf && same_doc crf pos (pos + 1) then add (F_trans pos);
        Array.iter (fun j -> add (F_skip (min pos j, max pos j))) (Crf.skip_partners crf pos))
      positions;
    Hashtbl.fold (fun f () acc -> f :: acc) seen []

  let factor_score params crf = function
    | F_local pos -> node params crf ~pos (Crf.label crf pos)
    | F_trans pos -> edge params (Crf.label crf pos) (Crf.label crf (pos + 1))
    | F_skip (i, j) ->
      Params.get params (Templates.skip_feature ~same:(Crf.label crf i = Crf.label crf j))

  let delta_multi params crf changes =
    let changes = List.filter (fun (pos, l) -> Crf.label crf pos <> l) changes in
    if changes = [] then 0.
    else begin
      let fs = touched crf (List.map fst changes) in
      let sum () = List.fold_left (fun acc f -> acc +. factor_score params crf f) 0. fs in
      let before = sum () in
      let saved = List.map (fun (pos, _) -> (pos, Crf.label crf pos)) changes in
      List.iter (fun (pos, l) -> Crf.set_label_local crf ~pos l) changes;
      let after = sum () in
      List.iter (fun (pos, l) -> Crf.set_label_local crf ~pos l) saved;
      after -. before
    end
end

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Random weights on every kind of feature the model reads, at values
   whose sums depend on their order. *)
let randomize_params rng params crf =
  let open Factorgraph in
  let w () = Mcmc.Rng.float rng 6. -. 3. in
  let label_names = Array.map Labels.to_string Labels.all in
  for pos = 0 to Crf.n_tokens crf - 1 do
    let s = Crf.token_string crf pos in
    let l = Mcmc.Rng.pick rng label_names in
    if Mcmc.Rng.bool rng then Params.set params (Templates.emission_feature s l) (w ());
    if Mcmc.Rng.bool rng then Params.set params (Templates.shape_feature s l) (w ())
  done;
  Array.iter
    (fun l ->
      Params.set params (Templates.bias_feature l) (w ());
      Array.iter
        (fun l' ->
          if Mcmc.Rng.bool rng then Params.set params (Templates.transition_feature l l') (w ()))
        label_names)
    label_names;
  Params.set params (Templates.skip_feature ~same:true) (w ());
  Params.set params (Templates.skip_feature ~same:false) (w ())

let check_against_reference rng params crf =
  let n = Crf.n_tokens crf in
  let fail what = Alcotest.failf "compiled scorer differs from the reference: %s" what in
  for _ = 1 to 300 do
    let pos = Mcmc.Rng.int rng n and l = Mcmc.Rng.pick rng Labels.all in
    if not (same_bits (Crf.delta_log_score crf ~pos l) (Reference.delta params crf ~pos l)) then
      fail (Printf.sprintf "delta_log_score at %d -> %s" pos (Labels.to_string l));
    let changes =
      List.sort_uniq
        (fun (a, _) (b, _) -> Int.compare a b)
        (List.init (1 + Mcmc.Rng.int rng 3) (fun _ ->
             let p = min (n - 1) (pos + Mcmc.Rng.int rng 4) in
             (p, Mcmc.Rng.pick rng Labels.all)))
    in
    if
      not
        (same_bits (Crf.delta_log_score_multi crf changes)
           (Reference.delta_multi params crf changes))
    then fail (Printf.sprintf "delta_log_score_multi around %d" pos);
    if Mcmc.Rng.bool rng then Crf.set_label_local crf ~pos l
  done;
  for doc = 0 to Crf.n_docs crf - 1 do
    let first, _ = Crf.doc_token_range crf doc in
    let m = Chain_inference.model_of_doc crf ~doc in
    for i = 0 to m.Factorgraph.Chain_fb.length - 1 do
      Array.iteri
        (fun li l ->
          if not (same_bits (m.node i li) (Reference.node params crf ~pos:(first + i) l)) then
            fail (Printf.sprintf "model_of_doc node %d of doc %d" i doc))
        Labels.all
    done;
    Array.iteri
      (fun li l ->
        Array.iteri
          (fun li' l' ->
            if not (same_bits (m.edge 0 li li') (Reference.edge params l l')) then
              fail "model_of_doc edge")
          Labels.all)
      Labels.all
  done

let test_crf_matches_reference =
  QCheck.Test.make ~name:"compiled-matches-reference" ~count:12
    QCheck.(pair (int_bound 1000) bool)
    (fun (seed, skip_edges) ->
      let rng = Mcmc.Rng.create (seed + 1) in
      let docs =
        Corpus.generate ~params:{ Corpus.default_params with n_docs = 4 } ~seed:(seed + 1) ()
      in
      let params = Crf.default_params () in
      let _, crf = mk_crf ~skip_edges ~params docs in
      (* Weights set by name after the model was compiled must be seen. *)
      randomize_params rng params crf;
      check_against_reference rng params crf;
      (* SampleRank updates the weights in place, by name. *)
      let report = Training.train ~steps:400 ~rng crf in
      if report.Training.updates = 0 then Alcotest.fail "training changed no weight";
      check_against_reference rng params crf;
      true)

(* ------------------------------------------------------------------ *)
(* Proposals *)

let test_bio_proposer_stays_valid () =
  let docs = Corpus.generate ~params:{ Corpus.default_params with n_docs = 2 } ~seed:12 () in
  let world, crf = mk_crf docs in
  let rng = Mcmc.Rng.create 13 in
  let proposal = Proposals.bio_constrained_flip crf in
  for step = 1 to 2000 do
    ignore (Mcmc.Metropolis.step rng proposal world : bool);
    if step mod 200 = 0 then
      for d = 0 to Crf.n_docs crf - 1 do
        let first, stop = Crf.doc_token_range crf d in
        let seq = List.init (stop - first) (fun i -> Crf.label crf (first + i)) in
        if not (valid_sequence seq) then
          Alcotest.failf "invalid BIO sequence in doc %d at step %d" d step
      done
  done

let test_batched_flip_runs () =
  let docs = Corpus.generate ~params:{ Corpus.default_params with n_docs = 8 } ~seed:14 () in
  let world, crf = mk_crf docs in
  let rng = Mcmc.Rng.create 15 in
  let proposal = Proposals.batched_flip ~batch_docs:2 ~proposals_per_batch:50 ~rng crf in
  let stats = Mcmc.Metropolis.fresh_stats () in
  Mcmc.Metropolis.run ~stats rng proposal world ~steps:500;
  Alcotest.(check int) "all proposals counted" 500 stats.Mcmc.Metropolis.proposed;
  Alcotest.(check bool) "some accepted" true (stats.Mcmc.Metropolis.accepted > 0)

(* ------------------------------------------------------------------ *)
(* Training *)

let test_samplerank_training_improves () =
  let docs = Corpus.generate ~params:{ Corpus.default_params with n_docs = 6 } ~seed:21 () in
  let db = Relational.Database.create () in
  ignore (Token_table.load db docs : Relational.Table.t);
  let world = Core.World.create db in
  (* Start from an empty parameter vector: everything is learned. *)
  let params = Factorgraph.Params.create () in
  let crf = Crf.create ~params world in
  let report = Training.train ~steps:60_000 ~rng:(Mcmc.Rng.create 22) crf in
  Alcotest.(check bool) "learned something" true (report.Training.updates > 0);
  Alcotest.(check bool)
    (Printf.sprintf "accuracy improves (%.3f -> %.3f)" report.Training.accuracy_before
       report.Training.accuracy_after)
    true
    (report.Training.accuracy_after > 0.9);
  (* Training must leave the initial world intact. *)
  Alcotest.(check bool) "labels reset after training" true (Crf.label crf 0 = Labels.O)

(* ------------------------------------------------------------------ *)
(* Coref: MCMC over partitions vs exact enumeration. *)

(* Enumerate set partitions of 0..n-1. *)
let rec partitions = function
  | [] -> [ [] ]
  | x :: rest ->
    List.concat_map
      (fun p ->
        let with_existing =
          List.mapi (fun i _ -> List.mapi (fun j b -> if i = j then x :: b else b) p) p
        in
        (([ x ] :: p) :: with_existing))
      (partitions rest)

let test_partitions_count () =
  (* Bell numbers: B(4) = 15 *)
  Alcotest.(check int) "B(4)" 15 (List.length (partitions [ 0; 1; 2; 3 ]))

let exact_cocluster strings i j =
  (* Score a partition with the same affinity model as Coref. *)
  let db = Relational.Database.create () in
  let _, coref = Coref.load db ~strings in
  let score p =
    List.fold_left
      (fun acc block ->
        let rec pairs = function
          | [] -> 0.
          | x :: rest -> List.fold_left (fun a y -> a +. Coref.affinity coref x y) 0. rest +. pairs rest
        in
        acc +. pairs block)
      0. p
  in
  let ps = partitions (List.init (Array.length strings) Fun.id) in
  let z = List.fold_left (fun acc p -> acc +. exp (score p)) 0. ps in
  let num =
    List.fold_left
      (fun acc p ->
        if List.exists (fun block -> List.mem i block && List.mem j block) p then
          acc +. exp (score p)
        else acc)
      0. ps
  in
  num /. z

let run_coref_chain proposal_of strings ~steps ~seed =
  let db = Relational.Database.create () in
  let world, coref = Coref.load db ~strings in
  let rng = Mcmc.Rng.create seed in
  let proposal = proposal_of coref in
  let together = ref 0 and total = ref 0 in
  for _ = 1 to steps do
    ignore (Mcmc.Metropolis.step rng proposal world : bool);
    incr total;
    if Coref.cluster_of coref 0 = Coref.cluster_of coref 1 then incr together
  done;
  (float_of_int !together /. float_of_int !total, coref)

let coref_strings = [| "John Smith"; "J. Smith"; "J. Simms"; "Bob" |]

let test_coref_move_matches_exact () =
  let exact = exact_cocluster coref_strings 0 1 in
  let est, _ = run_coref_chain Coref.move_proposal coref_strings ~steps:60_000 ~seed:31 in
  feq ~eps:0.03 "move proposal co-cluster prob" exact est

let test_coref_split_merge_matches_exact () =
  let exact = exact_cocluster coref_strings 0 1 in
  let mixed coref =
    Mcmc.Proposal.mix
      [| (0.5, Coref.move_proposal coref); (0.5, Coref.split_merge_proposal coref) |]
  in
  let est, _ = run_coref_chain mixed coref_strings ~steps:60_000 ~seed:32 in
  feq ~eps:0.03 "split-merge co-cluster prob" exact est

let test_coref_db_write_through () =
  let db = Relational.Database.create () in
  let world, coref = Coref.load db ~strings:coref_strings in
  ignore world;
  Coref.set_cluster coref ~mention:1 ~cluster:0;
  let res =
    Relational.Eval.eval db @@ Relational.Sql.parse "SELECT mention_id FROM MENTION WHERE cluster=0"
  in
  Alcotest.(check int) "two mentions in cluster 0" 2
    (Relational.Bag.total res.Relational.Eval.bag)

let test_coref_clusters_view () =
  let db = Relational.Database.create () in
  let _, coref = Coref.load db ~strings:coref_strings in
  Coref.set_cluster coref ~mention:1 ~cluster:0;
  let cs = List.init (Array.length coref_strings) (Coref.cluster_of coref) in
  Alcotest.(check (list int)) "mentions 0,1 in cluster 0" [ 0; 0; 2; 3 ] cs;
  Alcotest.(check int) "three clusters" 3 (List.length (List.sort_uniq Int.compare cs))


(* ------------------------------------------------------------------ *)
(* Multi-position deltas and the segment proposer *)

let test_crf_multi_delta_matches_sequential () =
  let docs =
    one_doc [ "Bill"; "saw"; "IBM"; "and"; "IBM" ]
      [ Labels.B Per; Labels.O; Labels.B Org; Labels.O; Labels.B Org ]
  in
  let params = Crf.default_params () in
  let _, crf = mk_crf ~params docs in
  let rng = Mcmc.Rng.create 41 in
  for _ = 1 to 100 do
    (* random joint change over distinct positions *)
    let k = 1 + Mcmc.Rng.int rng 3 in
    let positions = Array.init 5 Fun.id in
    Mcmc.Rng.shuffle rng positions;
    let changes =
      List.init k (fun i -> (positions.(i), Mcmc.Rng.pick rng Labels.all))
    in
    let joint = Crf.delta_log_score_multi crf changes in
    (* reference: apply sequentially, summing single deltas, then undo *)
    let saved = List.map (fun (p, _) -> (p, Crf.label crf p)) changes in
    let sequential =
      List.fold_left
        (fun acc (p, l) ->
          let d = Crf.delta_log_score crf ~pos:p l in
          Crf.set_label_local crf ~pos:p l;
          acc +. d)
        0. changes
    in
    List.iter (fun (p, l) -> Crf.set_label_local crf ~pos:p l) saved;
    feq ~eps:1e-9 "multi delta = telescoped singles" sequential joint
  done

let test_segment_flip_valid_mcmc () =
  (* On a tiny linear-chain model, a mixture of single flips and segment
     flips must converge to the same exact marginal. *)
  let strings = [ "Bill"; "Clinton"; "ran" ] in
  let truths = [ Labels.B Per; Labels.I Per; Labels.O ] in
  let params = Crf.default_params () in
  let world, crf = mk_crf ~skip_edges:false ~params (one_doc strings truths) in
  let { Factorgraph.Templates.graph; labels; assignment } =
    Factorgraph.Templates.unroll_chain ~skip_edges:false ~params ~label_domain:Labels.domain
      ~tokens:(Array.of_list strings) ()
  in
  ignore assignment;
  let exact = Factorgraph.Exact.marginals graph (Factorgraph.Graph.new_assignment graph) in
  let p_exact = (List.assoc labels.(0) exact).(Labels.index (Labels.B Per)) in
  let rng = Mcmc.Rng.create 43 in
  let proposal =
    Mcmc.Proposal.mix
      [| (0.5, Proposals.uniform_flip crf); (0.5, Proposals.segment_flip crf) |]
  in
  Mcmc.Metropolis.run rng proposal world ~steps:5_000;
  let hits = ref 0 in
  let samples = 40_000 in
  for _ = 1 to samples do
    Mcmc.Metropolis.run rng proposal world ~steps:5;
    if Crf.label crf 0 = Labels.B Per then incr hits
  done;
  feq ~eps:0.02 "segment mixture converges to exact"
    p_exact
    (float_of_int !hits /. float_of_int samples)

(* ------------------------------------------------------------------ *)
(* Chain inference (forward-backward adapter) *)

let test_chain_inference_matches_enumeration () =
  let strings = [ "Bill"; "saw"; "Ann" ] in
  let truths = [ Labels.B Per; Labels.O; Labels.B Per ] in
  let params = Crf.default_params () in
  let _, crf = mk_crf ~skip_edges:false ~params (one_doc strings truths) in
  let { Factorgraph.Templates.graph; labels; _ } =
    Factorgraph.Templates.unroll_chain ~skip_edges:false ~params ~label_domain:Labels.domain
      ~tokens:(Array.of_list strings) ()
  in
  let exact = Factorgraph.Exact.marginals graph (Factorgraph.Graph.new_assignment graph) in
  let fb = Chain_inference.marginals crf ~doc:0 in
  List.iteri
    (fun i _ ->
      let truth_dist = List.assoc labels.(i) exact in
      Array.iteri
        (fun x p -> feq ~eps:1e-9 (Printf.sprintf "fb pos %d label %d" i x) truth_dist.(x) p)
        fb.(i))
    strings

let test_chain_inference_decode () =
  let docs = Corpus.generate ~params:{ Corpus.default_params with n_docs = 4 } ~seed:55 () in
  let db = Relational.Database.create () in
  ignore (Token_table.load db docs : Relational.Table.t);
  let world = Core.World.create db in
  let crf = Crf.create ~skip_edges:false ~params:(Crf.default_params ()) world in
  (* Posterior decoding: each token takes its most probable label. *)
  let argmax p =
    let best = ref 0 in
    Array.iteri (fun l x -> if x > p.(!best) then best := l) p;
    !best
  in
  for doc = 0 to Crf.n_docs crf - 1 do
    let first, _ = Crf.doc_token_range crf doc in
    Array.iteri
      (fun i p -> Crf.set_label crf ~pos:(first + i) (Labels.of_index (argmax p)))
      (Chain_inference.marginals crf ~doc)
  done;
  (* The hand-built weights should decode most tokens correctly. *)
  Alcotest.(check bool)
    (Printf.sprintf "decoding accuracy high (%.3f)" (Crf.accuracy crf))
    true
    (Crf.accuracy crf > 0.9)

(* ------------------------------------------------------------------ *)
(* Metrics *)

let test_metrics_exact_match () =
  let gold = [| Labels.B Per; Labels.I Per; Labels.O; Labels.B Org |] in
  let s = Metrics.score ~gold ~predicted:gold in
  feq "perfect P" 1. s.Metrics.precision;
  feq "perfect R" 1. s.recall;
  feq "perfect F1" 1. s.f1;
  Alcotest.(check int) "mentions" 2 s.gold_mentions

let test_metrics_boundary_error () =
  let gold = [| Labels.B Per; Labels.I Per; Labels.O |] in
  (* Predicted mention truncated: boundary mismatch = no credit. *)
  let predicted = [| Labels.B Per; Labels.O; Labels.O |] in
  let s = Metrics.score ~gold ~predicted in
  feq "P" 0. s.Metrics.precision;
  feq "R" 0. s.recall;
  feq ~eps:1e-9 "token accuracy" (2. /. 3.) s.token_accuracy

let test_metrics_type_error () =
  let gold = [| Labels.B Per; Labels.O |] in
  let predicted = [| Labels.B Org; Labels.O |] in
  let s = Metrics.score ~gold ~predicted in
  feq "type mismatch P" 0. s.Metrics.precision

let test_metrics_empty () =
  let s = Metrics.score ~gold:[| Labels.O |] ~predicted:[| Labels.O |] in
  feq "empty/empty precision" 1. s.Metrics.precision;
  feq "empty/empty recall" 1. s.recall

(* ------------------------------------------------------------------ *)
(* Generative (MCDB-style) evaluation on linear chains *)

let test_generative_matches_exact () =
  let strings = [ "Bill"; "saw"; "Boston" ] in
  let truths = [ Labels.B Per; Labels.O; Labels.B Loc ] in
  let params = Crf.default_params () in
  let _, crf = mk_crf ~skip_edges:false ~params (one_doc strings truths) in
  (* Exact Pr[token 0 = B-PER] from forward-backward. *)
  let fb = Chain_inference.marginals crf ~doc:0 in
  let p_exact = fb.(0).(Labels.index (Labels.B Per)) in
  let query = Relational.Sql.parse "SELECT tok_id FROM TOKEN WHERE label='B-PER'" in
  let m =
    Generative_eval.evaluate ~rng:(Mcmc.Rng.create 91) ~crf ~query ~samples:20_000 ()
  in
  feq ~eps:0.01 "generative sampler matches exact marginal" p_exact
    (Core.Marginals.probability m (Relational.Row.make [ Relational.Value.Int 0 ]))

let test_generative_rejects_skip_chain () =
  let docs = one_doc [ "IBM"; "a"; "IBM" ] [ Labels.B Org; Labels.O; Labels.B Org ] in
  let _, crf = mk_crf ~skip_edges:true docs in
  let query = Relational.Sql.parse "SELECT tok_id FROM TOKEN" in
  match Generative_eval.evaluate ~rng:(Mcmc.Rng.create 1) ~crf ~query ~samples:1 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "skip-chain must be rejected — that is the point"

(* ------------------------------------------------------------------ *)
(* Evidence clamping *)

let test_clamped_positions_never_move () =
  let docs = Corpus.generate ~params:{ Corpus.default_params with n_docs = 2 } ~seed:61 () in
  let world, crf = mk_crf docs in
  Crf.clamp crf ~pos:0 (Labels.B Org);
  Crf.clamp crf ~pos:5 Labels.O;
  let rng = Mcmc.Rng.create 62 in
  let proposal =
    Mcmc.Proposal.mix
      [| (0.4, Proposals.uniform_flip crf); (0.3, Proposals.bio_constrained_flip crf);
         (0.3, Proposals.segment_flip crf) |]
  in
  Mcmc.Metropolis.run rng proposal world ~steps:5_000;
  Alcotest.(check bool) "clamp 0 intact" true (Crf.label crf 0 = Labels.B Org);
  Alcotest.(check bool) "clamp 5 intact" true (Crf.label crf 5 = Labels.O);
  Alcotest.(check int) "pool excludes clamps"
    (Crf.n_tokens crf - 2)
    (Array.length (Crf.unclamped_positions crf))

let test_clamp_shifts_posterior () =
  (* Clamping evidence must move neighbouring marginals: with token 1 pinned
     to I-PER, token 0 is forced toward B-PER by the transition weights. *)
  let strings = [ "Boston"; "Clinton" ] in
  let truths = [ Labels.B Loc; Labels.O ] in
  let params = Crf.default_params () in
  let estimate clamp_it seed =
    let world, crf = mk_crf ~skip_edges:false ~params (one_doc strings truths) in
    if clamp_it then Crf.clamp crf ~pos:1 (Labels.I Per);
    let rng = Mcmc.Rng.create seed in
    let proposal = Proposals.uniform_flip crf in
    Mcmc.Metropolis.run rng proposal world ~steps:2_000;
    let hits = ref 0 in
    let samples = 20_000 in
    for _ = 1 to samples do
      Mcmc.Metropolis.run rng proposal world ~steps:3;
      if Crf.label crf 0 = Labels.B Per then incr hits
    done;
    float_of_int !hits /. float_of_int samples
  in
  let free = estimate false 63 in
  let clamped = estimate true 64 in
  Alcotest.(check bool)
    (Printf.sprintf "clamping raises P(B-PER at 0): %.3f -> %.3f" free clamped)
    true
    (clamped > free +. 0.2)


(* ------------------------------------------------------------------ *)
(* Query-targeted proposals (§4.1) *)

let test_query_targeted_stays_in_relevant_docs () =
  let docs =
    [ { Corpus.id = 0;
        tokens =
          [| { Corpus.string = "Boston"; truth = Labels.B Loc };
             { Corpus.string = "won"; truth = Labels.O } |] };
      { Corpus.id = 1;
        tokens =
          [| { Corpus.string = "IBM"; truth = Labels.B Org };
             { Corpus.string = "fell"; truth = Labels.O } |] } ]
  in
  let world, crf = mk_crf docs in
  let query =
    Relational.Sql.parse
      "SELECT T2.STRING FROM TOKEN T1, TOKEN T2 WHERE T1.STRING='Boston' AND \
       T1.DOC_ID=T2.DOC_ID AND T2.LABEL='B-PER'"
  in
  let rng = Mcmc.Rng.create 71 in
  let proposal = Proposals.query_targeted crf query in
  Mcmc.Metropolis.run rng proposal world ~steps:3_000;
  (* Document 1 contains no 'Boston': its labels must be untouched. *)
  Alcotest.(check bool) "doc 1 untouched" true
    (Crf.label crf 2 = Labels.O && Crf.label crf 3 = Labels.O)

let test_query_targeted_matches_exact () =
  (* The restriction is exact, not an approximation, because documents are
     independent components: validate against exhaustive enumeration on a
     two-document corpus (9^6 worlds). *)
  let docs =
    [ { Corpus.id = 0;
        tokens =
          [| { Corpus.string = "Boston"; truth = Labels.B Org };
             { Corpus.string = "signed"; truth = Labels.O };
             { Corpus.string = "Carlos"; truth = Labels.B Per } |] };
      { Corpus.id = 1;
        tokens =
          [| { Corpus.string = "IBM"; truth = Labels.B Org };
             { Corpus.string = "fell"; truth = Labels.O };
             { Corpus.string = "Madrid"; truth = Labels.O } |] } ]
  in
  let params = Crf.default_params () in
  let query =
    Relational.Sql.parse
      "SELECT T2.STRING FROM TOKEN T1, TOKEN T2 WHERE T1.STRING='Boston' AND \
       T1.LABEL='B-ORG' AND T1.DOC_ID=T2.DOC_ID AND T2.LABEL='B-PER'"
  in
  (* Exact: unroll only doc 0 (doc 1 cannot contribute) and enumerate. *)
  let { Factorgraph.Templates.graph; labels; assignment } =
    Factorgraph.Templates.unroll_chain ~skip_edges:true ~params ~label_domain:Labels.domain
      ~tokens:[| "Boston"; "signed"; "Carlos" |] ()
  in
  let b_org = Labels.index (Labels.B Org) and b_per = Labels.index (Labels.B Per) in
  let exact =
    Factorgraph.Exact.event_probability graph assignment (fun a ->
        Factorgraph.Assignment.get a labels.(0) = b_org
        && (Factorgraph.Assignment.get a labels.(2) = b_per
           || Factorgraph.Assignment.get a labels.(0) = b_per))
  in
  (* "Carlos" is in the answer iff token 0 is B-ORG and some same-doc token
     with string Carlos is B-PER — only token 2 qualifies. (Token 0 being
     simultaneously B-ORG and B-PER is impossible; kept for clarity.) *)
  let db = Relational.Database.create () in
  ignore (Token_table.load db docs : Relational.Table.t);
  let world = Core.World.create db in
  let crf = Crf.create ~params world in
  let rng = Mcmc.Rng.create 73 in
  let pdb = Core.Pdb.create ~world ~proposal:(Proposals.query_targeted crf query) ~rng in
  let m =
    Core.Evaluator.evaluate ~burn_in:5_000 Core.Evaluator.Materialized pdb ~query ~thin:20
      ~samples:60_000
  in
  let est = Core.Marginals.probability m (Relational.Row.make [ Relational.Value.Text "Carlos" ]) in
  feq ~eps:0.02 "targeted sampler matches exact joint probability" exact est

let test_query_targeted_no_constants_is_global () =
  let docs = Corpus.generate ~params:{ Corpus.default_params with n_docs = 2 } ~seed:75 () in
  let world, crf = mk_crf docs in
  let query = Relational.Sql.parse "SELECT STRING FROM TOKEN WHERE LABEL='B-PER'" in
  let rng = Mcmc.Rng.create 76 in
  let proposal = Proposals.query_targeted crf query in
  let stats = Mcmc.Metropolis.fresh_stats () in
  Mcmc.Metropolis.run ~stats rng proposal world ~steps:1_000;
  Alcotest.(check bool) "proposals happen" true (stats.Mcmc.Metropolis.accepted > 0)

(* ------------------------------------------------------------------ *)
(* Sharding *)

let shard_doc id strings =
  { Corpus.id;
    tokens = Array.of_list (List.map (fun s -> { Corpus.string = s; truth = Labels.O }) strings) }

let doc_ids l = List.map (fun d -> d.Corpus.id) l

let test_sharding_clusters_exact () =
  (* Two string-disjoint clusters — {0,1} share "Alice", {2,3} share
     "Bob"; the lowercase "the" overlap must not link them. *)
  let docs =
    [ shard_doc 0 [ "Alice"; "ran"; "the" ]; shard_doc 1 [ "the"; "Alice" ];
      shard_doc 2 [ "Bob"; "sat" ]; shard_doc 3 [ "Bob"; "the"; "fox" ] ]
  in
  let plan = Sharding.plan ~shards:2 docs in
  Alcotest.(check int) "two clusters" 2 plan.Sharding.clusters;
  Alcotest.(check int) "factor-exact: no cut strings" 0 plan.Sharding.cut_strings;
  Alcotest.(check int) "two shards" 2 plan.Sharding.n_shards;
  let a = plan.Sharding.assignment in
  Alcotest.(check bool) "cluster mates co-located" true
    (a.(0) = a.(1) && a.(2) = a.(3) && a.(0) <> a.(2));
  Alcotest.(check int) "weights cover all tokens" (Corpus.total_tokens docs)
    (Array.fold_left ( + ) 0 plan.Sharding.weights);
  let subs = Sharding.split plan docs in
  Alcotest.(check int) "split arity" 2 (Array.length subs);
  Array.iteri
    (fun s sub ->
      let expect = List.filteri (fun i _ -> a.(i) = s) docs in
      Alcotest.(check (list int)) "split preserves corpus order" (doc_ids expect) (doc_ids sub))
    subs

let test_sharding_fallback_and_clamp () =
  (* Every doc shares "Hub": one giant cluster forces the doc-granularity
     fallback, which must cut the string rather than leave shards empty. *)
  let docs =
    [ shard_doc 0 [ "Hub"; "a" ]; shard_doc 1 [ "Hub"; "b"; "c" ];
      shard_doc 2 [ "Hub" ]; shard_doc 3 [ "Hub"; "d" ] ]
  in
  let plan = Sharding.plan ~shards:3 docs in
  Alcotest.(check int) "one cluster" 1 plan.Sharding.clusters;
  Alcotest.(check int) "still three shards" 3 plan.Sharding.n_shards;
  Alcotest.(check bool) "no empty shard" true
    (Array.for_all (fun w -> w > 0) plan.Sharding.weights);
  Alcotest.(check bool) "the shared string is cut" true (plan.Sharding.cut_strings >= 1);
  let plan2 = Sharding.plan ~shards:10 docs in
  Alcotest.(check int) "width clamped to #docs" 4 plan2.Sharding.n_shards;
  Alcotest.(check bool) "shards=0 rejected" true
    (match Sharding.plan ~shards:0 docs with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "empty corpus rejected" true
    (match Sharding.plan ~shards:2 [] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_sharding_balance () =
  (* Greedy largest-first packing keeps token weights balanced on the
     synthetic corpus (single shared-lexicon cluster, so this also
     exercises the fallback on realistic data). *)
  let docs = Corpus.generate_tokens ~seed:5 ~n_tokens:4_000 in
  let plan = Sharding.plan ~shards:4 docs in
  Alcotest.(check int) "weights cover corpus" (Corpus.total_tokens docs)
    (Array.fold_left ( + ) 0 plan.Sharding.weights);
  let mx = Array.fold_left max 0 plan.Sharding.weights in
  let mn = Array.fold_left min max_int plan.Sharding.weights in
  Alcotest.(check bool) "balanced within 2x" true (mx <= 2 * mn)

let () =
  Alcotest.run "ie"
    [ ("sharding",
       [ Alcotest.test_case "clusters-exact" `Quick test_sharding_clusters_exact;
         Alcotest.test_case "fallback-and-clamp" `Quick test_sharding_fallback_and_clamp;
         Alcotest.test_case "balance" `Quick test_sharding_balance ]);
      ("labels",
       [ Alcotest.test_case "roundtrip" `Quick test_labels_roundtrip;
         Alcotest.test_case "index-roundtrip" `Quick test_labels_index_roundtrip;
         Alcotest.test_case "transitions" `Quick test_labels_transitions;
         Alcotest.test_case "segments" `Quick test_labels_segments;
         Alcotest.test_case "valid-sequence" `Quick test_labels_valid_sequence ]);
      ("corpus",
       [ Alcotest.test_case "deterministic" `Quick test_corpus_deterministic;
         Alcotest.test_case "truth-valid-bio" `Quick test_corpus_truth_valid_bio;
         Alcotest.test_case "target-size" `Quick test_corpus_target_size;
         Alcotest.test_case "ambiguity-and-repeats" `Quick test_corpus_has_ambiguity_and_repeats ]);
      ("token-table",
       [ Alcotest.test_case "load" `Quick test_token_table_load;
         Alcotest.test_case "crf-requires-columnar" `Quick test_crf_requires_columnar ]);
      ("crf",
       [ Alcotest.test_case "matches-template-graph" `Quick test_crf_matches_template_graph;
         Alcotest.test_case "write-through" `Quick test_crf_write_through;
         Alcotest.test_case "accuracy" `Quick test_crf_accuracy_truth;
         Alcotest.test_case "skip-partners" `Quick test_crf_skip_partners;
         Alcotest.test_case "features-consistent" `Quick test_crf_delta_features_consistent;
         Alcotest.test_case "skip-cap-symmetric" `Quick test_crf_skip_cap_symmetric;
         QCheck_alcotest.to_alcotest test_crf_matches_reference ]);
      ("proposals",
       [ Alcotest.test_case "bio-stays-valid" `Quick test_bio_proposer_stays_valid;
         Alcotest.test_case "batched-flip" `Quick test_batched_flip_runs ]);
      ("training", [ Alcotest.test_case "samplerank-improves" `Slow test_samplerank_training_improves ]);
      ("block-proposals",
       [ Alcotest.test_case "multi-delta" `Quick test_crf_multi_delta_matches_sequential;
         Alcotest.test_case "segment-flip-converges" `Slow test_segment_flip_valid_mcmc ]);
      ("chain-inference",
       [ Alcotest.test_case "matches-enumeration" `Quick test_chain_inference_matches_enumeration;
         Alcotest.test_case "viterbi-decode" `Quick test_chain_inference_decode ]);
      ("metrics",
       [ Alcotest.test_case "exact-match" `Quick test_metrics_exact_match;
         Alcotest.test_case "boundary-error" `Quick test_metrics_boundary_error;
         Alcotest.test_case "type-error" `Quick test_metrics_type_error;
         Alcotest.test_case "empty" `Quick test_metrics_empty ]);
      ("generative",
       [ Alcotest.test_case "matches-exact" `Slow test_generative_matches_exact;
         Alcotest.test_case "rejects-skip" `Quick test_generative_rejects_skip_chain ]);
      ("clamping",
       [ Alcotest.test_case "never-moves" `Quick test_clamped_positions_never_move;
         Alcotest.test_case "shifts-posterior" `Slow test_clamp_shifts_posterior ]);
      ("query-targeted",
       [ Alcotest.test_case "stays-in-docs" `Quick test_query_targeted_stays_in_relevant_docs;
         Alcotest.test_case "matches-exact" `Slow test_query_targeted_matches_exact;
         Alcotest.test_case "no-constants-global" `Quick test_query_targeted_no_constants_is_global ]);
      ("coref",
       [ Alcotest.test_case "partitions-count" `Quick test_partitions_count;
         Alcotest.test_case "move-matches-exact" `Slow test_coref_move_matches_exact;
         Alcotest.test_case "split-merge-matches-exact" `Slow test_coref_split_merge_matches_exact;
         Alcotest.test_case "db-write-through" `Quick test_coref_db_write_through;
         Alcotest.test_case "clusters-view" `Quick test_coref_clusters_view ]) ]
