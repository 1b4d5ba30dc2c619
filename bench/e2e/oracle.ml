(* Exact Query-1 truth for the linear-chain CRF.

   Query 1 is SELECT STRING FROM TOKEN WHERE LABEL='B-PER'. Without skip
   edges the documents are independent chains, so for a string s

     Pr[s not in Q1(W)] = prod_d Pr_d[no B-PER at the positions of s in d]

   and each factor is a ratio of partition functions: the document's Z
   with B-PER blocked at those positions over its unconstrained Z. One
   scaled forward pass and one scaled backward pass per document give
   every such ratio through a short constrained sweep from the first to
   the last occurrence of s; the prefix before it and the suffix after it
   are shared with the unconstrained passes. Potentials come from
   [Ie.Chain_inference.model_of_doc], the same tables
   [Factorgraph.Chain_fb] runs on, so [check] can compare the two. *)

let n_labels = Array.length Ie.Labels.all
let bper = Ie.Labels.index (Ie.Labels.B Ie.Labels.Per)

(* Messages are rescaled to sum 1 at every position; [log_fwd.(i)] and
   [log_bwd.(i)] carry the logs of the scale factors, so the true
   alpha_i(l) is [fwd.(i).(l) *. exp log_fwd.(i)] and likewise for beta. *)
type pass = {
  psi : float array array;  (* exp node potential, [position][label] *)
  trans : float array array;  (* exp transition potential [from][to] *)
  fwd : float array array;
  log_fwd : float array;
  bwd : float array array;
  log_bwd : float array;
  log_z : float;
}

let normalize v =
  let s = Array.fold_left ( +. ) 0. v in
  Array.iteri (fun l x -> v.(l) <- x /. s) v;
  log s

(* [v] advanced one position: sum_l v(l) trans(l)(l') psi_j(l'). *)
let advance p v j =
  Array.init n_labels (fun l' ->
      let acc = ref 0. in
      for l = 0 to n_labels - 1 do
        acc := !acc +. (v.(l) *. p.trans.(l).(l'))
      done;
      !acc *. p.psi.(j).(l'))

let pass_of_model (m : Factorgraph.Chain_fb.model) =
  let n = m.length in
  let psi = Array.init n (fun i -> Array.init n_labels (fun l -> exp (m.node i l))) in
  let trans =
    Array.init n_labels (fun l -> Array.init n_labels (fun l' -> exp (m.edge 0 l l')))
  in
  let p =
    { psi; trans; fwd = Array.make n [||]; log_fwd = Array.make n 0.;
      bwd = Array.make n [||]; log_bwd = Array.make n 0.; log_z = 0. }
  in
  let f0 = Array.copy psi.(0) in
  p.log_fwd.(0) <- normalize f0;
  p.fwd.(0) <- f0;
  for i = 1 to n - 1 do
    let v = advance p p.fwd.(i - 1) i in
    p.log_fwd.(i) <- p.log_fwd.(i - 1) +. normalize v;
    p.fwd.(i) <- v
  done;
  let last = Array.make n_labels 1. in
  p.log_bwd.(n - 1) <- normalize last;
  p.bwd.(n - 1) <- last;
  for i = n - 2 downto 0 do
    let b =
      Array.init n_labels (fun l ->
          let acc = ref 0. in
          for l' = 0 to n_labels - 1 do
            acc := !acc +. (trans.(l).(l') *. psi.(i + 1).(l') *. p.bwd.(i + 1).(l'))
          done;
          !acc)
    in
    p.log_bwd.(i) <- p.log_bwd.(i + 1) +. normalize b;
    p.bwd.(i) <- b
  done;
  { p with log_z = p.log_fwd.(n - 1) }

let dot a b =
  let acc = ref 0. in
  Array.iteri (fun l x -> acc := !acc +. (x *. b.(l))) a;
  !acc

(* log Pr[no B-PER at any of [positions]] (ascending, document-relative). *)
let log_pr_blocked p = function
  | [] -> 0.
  | first :: rest ->
    let v = Array.copy p.fwd.(first) in
    v.(bper) <- 0.;
    let log_v = p.log_fwd.(first) +. normalize v in
    let rec sweep v log_v last = function
      | [] -> log_v +. p.log_bwd.(last) +. log (dot v p.bwd.(last)) -. p.log_z
      | target :: rest ->
        let v = ref v and log_v = ref log_v in
        for j = last + 1 to target do
          let w = advance p !v j in
          if j = target then w.(bper) <- 0.;
          log_v := !log_v +. normalize w;
          v := w
        done;
        sweep !v !log_v target rest
    in
    sweep v log_v first rest

(* Document-relative positions of every distinct string in document [d],
   strings in first-occurrence order. *)
let positions_by_string crf d =
  let first, stop = Ie.Crf.doc_token_range crf d in
  let tbl = Hashtbl.create 64 and order = ref [] in
  for pos = first to stop - 1 do
    let s = Ie.Crf.token_string crf pos in
    match Hashtbl.find_opt tbl s with
    | Some l -> l := (pos - first) :: !l
    | None ->
      Hashtbl.replace tbl s (ref [ pos - first ]);
      order := s :: !order
  done;
  List.rev_map (fun s -> (s, List.rev !(Hashtbl.find tbl s))) !order

let pass crf d = pass_of_model (Ie.Chain_inference.model_of_doc crf ~doc:d)

(* Pr[s in Q1(W)] for every string of the corpus, sorted by row — the
   [~reference] [Core.Marginals.squared_error_to] takes. *)
let query1 crf =
  if Ie.Crf.has_skip_edges crf then invalid_arg "Oracle.query1: linear-chain CRF only";
  let log_absent = Hashtbl.create 1024 in
  for d = 0 to Ie.Crf.n_docs crf - 1 do
    let p = pass crf d in
    List.iter
      (fun (s, positions) ->
        let prev = Option.value ~default:0. (Hashtbl.find_opt log_absent s) in
        Hashtbl.replace log_absent s (prev +. log_pr_blocked p positions))
      (positions_by_string crf d)
  done;
  Hashtbl.fold
    (fun s la acc -> ([| Relational.Value.Text s |], -.Float.expm1 la) :: acc)
    log_absent []
  |> List.sort (fun (a, _) (b, _) -> Relational.Row.compare a b)

(* Largest disagreement with [Factorgraph.Chain_fb] over the first [docs]
   documents: log Z and, for the first [blocked_docs] of them, the
   log-probability of every (string, document) blocking, recomputed by a
   full [Chain_fb.log_partition] with the B-PER potential set to -inf. *)
let check crf ~docs ~blocked_docs =
  let worst = ref 0. in
  let see a b = worst := Float.max !worst (Float.abs (a -. b)) in
  for d = 0 to min docs (Ie.Crf.n_docs crf) - 1 do
    let m = Ie.Chain_inference.model_of_doc crf ~doc:d in
    let p = pass_of_model m in
    let log_z = Factorgraph.Chain_fb.log_partition m in
    see p.log_z log_z;
    if d < blocked_docs then
      List.iter
        (fun (_, positions) ->
          let node i l =
            if l = bper && List.mem i positions then neg_infinity else m.node i l
          in
          let exact = Factorgraph.Chain_fb.log_partition { m with node } -. log_z in
          see (log_pr_blocked p positions) exact)
        (positions_by_string crf d)
  done;
  !worst
