open Factorgraph

let n_labels = Array.length Labels.all

(* The compiled model. Every factor weight the scorer reads is a
   {!Params} id resolved here once: per word type (the TOKEN string
   column's distinct Intern ids, ~130 in the generated corpus) for
   emission and shape, per label for bias, per label pair for
   transitions. The only per-token array the model adds is [word]. *)
type t = {
  params : Params.t;
  world : Core.World.t;
  word : int array; (* token position -> word type *)
  types : int array; (* word type -> Intern id of its string *)
  emit : int array; (* (word type * n_labels) + label index -> feature id *)
  shape : int array; (* same layout *)
  bias : int array; (* label index -> feature id *)
  trans : int array; (* (left * n_labels) + right -> feature id *)
  skip_same : int;
  skip_diff : int;
  id_buf : int array; (* [local_ids]'s output; a model scores on one domain *)
  labels : Labels.t array;
  truth : Labels.t array;
  doc_of : int array;
  doc_ranges : (int * int) array; (* doc index -> (first, last_exclusive) *)
  skip_partners : int array array;
  skip_edges : bool;
  clamped : bool array;
  mutable unclamped_cache : int array option;
  mutable type_docs : int list array option;
}

let max_skip_degree = 20

(* Skip partners: identical capitalized strings within a document,
   grouped by word type. Each member of a group would keep its first
   [max_skip_degree] partners; a pair survives only when both members keep
   each other, which leaves exactly the first [max_skip_degree + 1]
   members of a larger group fully connected and the rest without skip
   factors — both endpoints of every skip factor see it. *)
let skip_partners_of ~word ~capitalized ~n_types doc_ranges =
  let partners = Array.make (Array.length word) [||] in
  let members = Array.make n_types [] in
  Array.iter
    (fun (start, stop) ->
      let seen = ref [] in
      for p = start to stop - 1 do
        let ty = word.(p) in
        if capitalized.(ty) then begin
          (match members.(ty) with [] -> seen := ty :: !seen | _ :: _ -> ());
          members.(ty) <- p :: members.(ty)
        end
      done;
      List.iter
        (fun ty ->
          let group = Array.of_list (List.rev members.(ty)) in
          members.(ty) <- [];
          let group =
            if Array.length group > max_skip_degree + 1 then Array.sub group 0 (max_skip_degree + 1)
            else group
          in
          if Array.length group > 1 then
            Array.iteri
              (fun idx p ->
                partners.(p) <-
                  Array.of_list (List.filteri (fun j _ -> j <> idx) (Array.to_list group)))
              group)
        !seen)
    doc_ranges;
  partners

let max_id = Array.fold_left Int.max (-1)

let create ?(skip_edges = true) ~params world =
  let open Relational in
  let table = Database.table (Core.World.db world) Token_table.table_name in
  (* [strs] holds each position's Intern id of its string. A bulk read of
     the raw int columns, no boxed rows at any point — at the paper's
     1M–10M-token scale (Fig 4a) decoding the table row-by-row would
     transiently allocate tens of millions of boxes. Storage order is
     insertion order, which the loader emits in tok_id order; verify and
     fall back to an argsort if rows were churned. *)
  let col name =
    match Table.column_ints table name with
    | Some a -> a
    | None -> invalid_arg "Crf.create: TOKEN is not a columnar table"
  in
  let tok = col "tok_id" in
  let n = Array.length tok in
  let doc = col "doc_id" and str = col "string" and lab = col "label" and tru = col "truth" in
  let sorted =
    let ok = ref true in
    for i = 0 to n - 2 do
      if tok.(i) >= tok.(i + 1) then ok := false
    done;
    !ok
  in
  let perm = Array.init n (fun i -> i) in
  if not sorted then Array.sort (fun a b -> Int.compare tok.(a) tok.(b)) perm;
  (* Distinct label strings number |Labels.all| + whatever TRUTH holds;
     parse each interned id once, into a table indexed by id. *)
  let label_cache = Array.make (Int.max (max_id lab) (max_id tru) + 1) None in
  let label_of id =
    match label_cache.(id) with
    | Some l -> l
    | None ->
      let l = Labels.of_string (Intern.resolve id) in
      label_cache.(id) <- Some l;
      l
  in
  let strs = Array.init n (fun i -> str.(perm.(i))) in
  let labels = Array.init n (fun i -> label_of lab.(perm.(i))) in
  let truth = Array.init n (fun i -> label_of tru.(perm.(i))) in
  let doc_of = Array.init n (fun i -> doc.(perm.(i))) in
  (* Word types, numbered in first-occurrence order through an array
     indexed by Intern id — equal strings share an id, so no string is
     hashed per token. *)
  let type_of = Array.make (max_id strs + 1) (-1) in
  let types = ref [] and n_types = ref 0 in
  let word =
    Array.map
      (fun id ->
        if type_of.(id) < 0 then begin
          type_of.(id) <- !n_types;
          types := id :: !types;
          incr n_types
        end;
        type_of.(id))
      strs
  in
  let types = Array.of_list (List.rev !types) in
  let ids = Templates.resolve params Labels.domain in
  let emit = Array.make (!n_types * n_labels) 0 and shape = Array.make (!n_types * n_labels) 0 in
  Array.iteri
    (fun ty id ->
      let s = Intern.resolve id in
      Array.blit (Templates.emission_ids ids s) 0 emit (ty * n_labels) n_labels;
      Array.blit (Templates.shape_ids ids s) 0 shape (ty * n_labels) n_labels)
    types;
  (* Document ranges: token ids are dense in document order. *)
  let ranges = ref [] in
  let i = ref 0 in
  while !i < n do
    let d = doc_of.(!i) in
    let start = !i in
    while !i < n && doc_of.(!i) = d do incr i done;
    ranges := (start, !i) :: !ranges
  done;
  let doc_ranges = Array.of_list (List.rev !ranges) in
  let skip_partners =
    if not skip_edges then Array.make n [||]
    else
      skip_partners_of ~word
        ~capitalized:(Array.map (fun id -> Lexicon.is_capitalized (Intern.resolve id)) types)
        ~n_types:!n_types doc_ranges
  in
  { params; world; word; types; emit; shape; bias = ids.Templates.bias; trans = ids.trans;
    skip_same = ids.skip_same; skip_diff = ids.skip_diff;
    id_buf = Array.make (max_skip_degree + 5) 0;
    labels; truth; doc_of; doc_ranges; skip_partners; skip_edges;
    clamped = Array.make n false; unclamped_cache = None; type_docs = None }

let params t = t.params
let world t = t.world
let has_skip_edges t = t.skip_edges
let n_tokens t = Array.length t.word
let n_docs t = Array.length t.doc_ranges
let token_string t i = Relational.Intern.resolve t.types.(t.word.(i))
let doc_of t i = t.doc_of.(i)

let doc_token_range t d =
  (* [d] is the dense document index (position in doc_ranges) — NOT the
     corpus doc id, which need not be dense once a shard holds a subset
     of the documents (Sharding keeps original ids). *)
  if d < 0 || d >= Array.length t.doc_ranges then invalid_arg "Crf.doc_token_range";
  t.doc_ranges.(d)

let doc_index_at t pos =
  if pos < 0 || pos >= Array.length t.doc_of then invalid_arg "Crf.doc_index_at";
  (* Binary search: ranges are consecutive and cover [0, n). *)
  let lo = ref 0 and hi = ref (Array.length t.doc_ranges - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let _, stop = t.doc_ranges.(mid) in
    if pos < stop then hi := mid else lo := mid + 1
  done;
  !lo

let docs_containing t s =
  let table =
    match t.type_docs with
    | Some a -> a
    | None ->
      let a = Array.make (Array.length t.types) [] in
      (* Dense document indices, built range by range so the dedup head
         check works even when positions of one doc are visited across
         a range boundary. *)
      Array.iteri
        (fun d (start, stop) ->
          for pos = start to stop - 1 do
            let ty = t.word.(pos) in
            match a.(ty) with d' :: _ when d' = d -> () | ds -> a.(ty) <- d :: ds
          done)
        t.doc_ranges;
      t.type_docs <- Some a;
      a
  in
  let docs =
    match Relational.Intern.find_opt s with
    | None -> []
    | Some id -> (
      match Array.find_index (Int.equal id) t.types with Some ty -> table.(ty) | None -> [])
  in
  List.sort Int.compare docs

let label t i = t.labels.(i)
let truth t i = t.truth.(i)
let skip_partners t i = t.skip_partners.(i)

(* ------------------------------------------------------------------ *)
(* Local scoring: all factors that touch position [pos], evaluated with the
   given label for [pos] and current labels elsewhere. *)

let same_doc t i j = t.doc_of.(i) = t.doc_of.(j)

(* The feature ids of every factor touching [pos] when it holds label
   index [li], written to [t.id_buf] in summation order — skip partners
   last to first, the right transition, the left transition, bias, shape,
   emission — and their count returned. The order is part of the model:
   float addition does not commute bit for bit, and the sample paths (the
   pinned smoke digests, the name-keyed reference in test/test_ie.ml) are
   defined by this one. *)
let local_ids t ~pos li =
  let buf = t.id_buf and partners = t.skip_partners.(pos) in
  let np = Array.length partners in
  for k = 0 to np - 1 do
    buf.(k) <-
      (if Labels.index t.labels.(partners.(np - 1 - k)) = li then t.skip_same else t.skip_diff)
  done;
  let n = ref np in
  if pos + 1 < Array.length t.word && same_doc t pos (pos + 1) then begin
    buf.(!n) <- t.trans.((li * n_labels) + Labels.index t.labels.(pos + 1));
    incr n
  end;
  if pos > 0 && same_doc t (pos - 1) pos then begin
    buf.(!n) <- t.trans.((Labels.index t.labels.(pos - 1) * n_labels) + li);
    incr n
  end;
  let k = (t.word.(pos) * n_labels) + li in
  buf.(!n) <- t.bias.(li);
  buf.(!n + 1) <- t.shape.(k);
  buf.(!n + 2) <- t.emit.(k);
  !n + 3

let delta_log_score t ~pos l =
  let li = Labels.index l and lc = Labels.index t.labels.(pos) in
  if li = lc then 0.
  else begin
    let w = Params.weights t.params and buf = t.id_buf in
    let s = ref 0. in
    for i = 0 to local_ids t ~pos li - 1 do
      s := !s +. w.(buf.(i))
    done;
    let s' = ref 0. in
    for i = 0 to local_ids t ~pos lc - 1 do
      s' := !s' +. w.(buf.(i))
    done;
    !s -. !s'
  end

let delta_features t ~pos l =
  if l = t.labels.(pos) then []
  else begin
    (* [(name, scale)] for each factor touching [pos] with label [l], in
       summation order, in front of [acc]. *)
    let features l scale acc =
      let n = local_ids t ~pos (Labels.index l) in
      let acc = ref acc in
      for i = n - 1 downto 0 do
        acc := (Params.name t.params t.id_buf.(i), scale) :: !acc
      done;
      !acc
    in
    (* Merge identical feature names. *)
    let h = Hashtbl.create 16 in
    List.iter
      (fun (k, v) -> Hashtbl.replace h k (v +. Option.value ~default:0. (Hashtbl.find_opt h k)))
      (features l 1. (features t.labels.(pos) (-1.) []));
    Hashtbl.fold (fun k v out -> if v <> 0. then (k, v) :: out else out) h []
  end

let node_weight t ~pos li =
  let w = Params.weights t.params and k = (t.word.(pos) * n_labels) + li in
  w.(t.emit.(k)) +. w.(t.shape.(k)) +. w.(t.bias.(li))

let transition_weight t l l' = (Params.weights t.params).(t.trans.((l * n_labels) + l'))

(* Factor instances touched by a set of positions, de-duplicated: emission
   and bias at each position, the transitions on both sides, and incident
   skip edges. *)
type factor_instance =
  | F_local of int (* emission + bias at a position *)
  | F_trans of int (* transition between pos and pos+1 *)
  | F_skip of int * int (* i < j *)

let touched_factors t positions =
  let seen = Hashtbl.create 32 in
  let add f = if not (Hashtbl.mem seen f) then Hashtbl.replace seen f () in
  let n = Array.length t.word in
  List.iter
    (fun pos ->
      add (F_local pos);
      if pos > 0 && same_doc t (pos - 1) pos then add (F_trans (pos - 1));
      if pos + 1 < n && same_doc t pos (pos + 1) then add (F_trans pos);
      Array.iter
        (fun j -> add (F_skip (min pos j, max pos j)))
        t.skip_partners.(pos))
    positions;
  Hashtbl.fold (fun f () acc -> f :: acc) seen []

let factor_instance_score t = function
  | F_local pos -> node_weight t ~pos (Labels.index t.labels.(pos))
  | F_trans pos ->
    transition_weight t (Labels.index t.labels.(pos)) (Labels.index t.labels.(pos + 1))
  | F_skip (i, j) ->
    let same = Labels.index t.labels.(i) = Labels.index t.labels.(j) in
    (Params.weights t.params).(if same then t.skip_same else t.skip_diff)

let delta_log_score_multi t changes =
  let changes = List.filter (fun (pos, l) -> t.labels.(pos) <> l) changes in
  if changes = [] then 0.
  else begin
    let fs = touched_factors t (List.map fst changes) in
    let sum () = List.fold_left (fun acc f -> acc +. factor_instance_score t f) 0. fs in
    let before = sum () in
    let saved = List.map (fun (pos, _) -> (pos, t.labels.(pos))) changes in
    List.iter (fun (pos, l) -> t.labels.(pos) <- l) changes;
    let after = sum () in
    List.iter (fun (pos, l) -> t.labels.(pos) <- l) saved;
    after -. before
  end

let set_label_local t ~pos l = t.labels.(pos) <- l

let set_label t ~pos l =
  if t.labels.(pos) <> l then begin
    t.labels.(pos) <- l;
    (* [Labels.value] is the shared interned box — an accepted flip
       allocates no text (lint rule R7). *)
    Core.World.set_field t.world (Token_table.field_of_tok pos) (Labels.value l)
  end

let set_labels_multi t changes =
  List.iter (fun (pos, l) -> set_label t ~pos l) changes

let accuracy t =
  let n = Array.length t.labels in
  if n = 0 then 1.
  else begin
    let hits = ref 0 in
    Array.iteri (fun i l -> if l = t.truth.(i) then incr hits) t.labels;
    float_of_int !hits /. float_of_int n
  end

let clamp t ~pos l =
  set_label t ~pos l;
  t.clamped.(pos) <- true;
  t.unclamped_cache <- None

let is_clamped t pos = t.clamped.(pos)

let unclamped_positions t =
  match t.unclamped_cache with
  | Some a -> a
  | None ->
    let out = ref [] in
    for pos = Array.length t.clamped - 1 downto 0 do
      if not t.clamped.(pos) then out := pos :: !out
    done;
    let a = Array.of_list !out in
    t.unclamped_cache <- Some a;
    a

(* ------------------------------------------------------------------ *)

let default_params () =
  let p = Params.create () in
  let ids = Templates.resolve p Labels.domain in
  let set id w = Params.set_weight p id w in
  let emit l w s =
    (* pdb_lint: allow R7 — cold path: names one lexicon weight, once per model *)
    Params.set p (Templates.emission_feature s (Labels.to_string l)) w
  in
  let trans a b w = set ids.trans.((Labels.index a * n_labels) + Labels.index b) w in
  Array.iter (emit (Labels.B Per) 2.2) Lexicon.first_names;
  Array.iter
    (fun s ->
      emit (Labels.I Per) 2.0 s;
      emit (Labels.B Per) 0.8 s)
    Lexicon.last_names;
  Array.iter (emit (Labels.B Org) 2.2) Lexicon.org_words;
  Array.iter (emit (Labels.I Org) 2.0) Lexicon.org_suffixes;
  Array.iter (emit (Labels.B Loc) 2.2) Lexicon.locations;
  Array.iter (emit (Labels.B Misc) 2.0) Lexicon.misc_words;
  (* City strings stay genuinely ambiguous between LOC and ORG: both got
     2.2 above (they sit in both pools), which is the uncertainty Query 4
     relies on. Tilt very slightly toward LOC. *)
  Array.iter (emit (Labels.B Loc) 2.3) Lexicon.ambiguous_city_orgs;
  Array.iter (emit Labels.O 3.5) Lexicon.common_words;
  (* Transitions: continuations must follow their opener. *)
  let entities = [ Labels.Per; Labels.Org; Labels.Loc; Labels.Misc ] in
  List.iter
    (fun e ->
      trans (Labels.B e) (Labels.I e) 1.2;
      trans (Labels.I e) (Labels.I e) 0.8;
      trans Labels.O (Labels.I e) (-3.);
      List.iter
        (fun e' ->
          if e <> e' then begin
            trans (Labels.B e') (Labels.I e) (-3.);
            trans (Labels.I e') (Labels.I e) (-3.)
          end)
        entities)
    entities;
  trans Labels.O Labels.O 0.4;
  (* Bias: "O" is the most frequent label; lowercase shapes are almost
     always O, a weak generalization beyond the lexicon. *)
  set ids.bias.(Labels.index Labels.O) 0.8;
  set (Templates.shape_ids ids "a").(Labels.index Labels.O) 0.5;
  (* Skip edges prefer agreeing labels. *)
  set ids.skip_same 0.8;
  set ids.skip_diff (-0.4);
  p
