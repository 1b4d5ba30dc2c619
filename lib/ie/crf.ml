open Factorgraph

type t = {
  params : Params.t;
  world : Core.World.t;
  strings : string array;
  labels : Labels.t array;
  truth : Labels.t array;
  doc_of : int array;
  doc_ranges : (int * int) array; (* doc index -> (first, last_exclusive) *)
  skip_partners : int array array;
  skip_edges : bool;
  clamped : bool array;
  mutable unclamped_cache : int array option;
  mutable string_docs : (string, int list) Hashtbl.t option;
}

let max_skip_degree = 20

let create ?(skip_edges = true) ~params world =
  let open Relational in
  let table = Database.table (Core.World.db world) Token_table.table_name in
  let strings, labels, truth, doc_of =
    match Table.column_ints table "tok_id" with
    | Some tok ->
      (* Columnar bulk read: raw int columns, no boxed rows at any point —
         at the paper's 1M–10M-token scale (Fig 4a) decoding the table
         row-by-row would transiently allocate tens of millions of
         boxes. Storage order is insertion order, which the loader emits
         in tok_id order; verify and fall back to an argsort if rows
         were churned. *)
      let n = Array.length tok in
      let col name =
        match Table.column_ints table name with Some a -> a | None -> assert false
      in
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
         parse each interned id once. *)
      let label_cache : (int, Labels.t) Hashtbl.t = Hashtbl.create 16 in
      let label_of id =
        match Hashtbl.find_opt label_cache id with
        | Some l -> l
        | None ->
          let l = Labels.of_string (Intern.resolve id) in
          Hashtbl.replace label_cache id l;
          l
      in
      ( Array.init n (fun i -> Intern.resolve str.(perm.(i))),
        Array.init n (fun i -> label_of lab.(perm.(i))),
        Array.init n (fun i -> label_of tru.(perm.(i))),
        Array.init n (fun i -> doc.(perm.(i))) )
    | None ->
      let rows =
        Bag.rows (Table.rows table)
        |> List.sort (fun a b -> Value.compare (Row.get a 0) (Row.get b 0))
        |> Array.of_list
      in
      let schema = Table.schema table in
      let col name = Schema.index_of schema name in
      let c_doc = col "doc_id"
      and c_str = col "string"
      and c_lab = col "label"
      and c_tru = col "truth" in
      ( Array.map (fun r -> Value.to_string (Row.get r c_str)) rows,
        Array.map (fun r -> Labels.of_string (Value.to_string (Row.get r c_lab))) rows,
        Array.map (fun r -> Labels.of_string (Value.to_string (Row.get r c_tru))) rows,
        Array.map (fun r -> Value.to_int (Row.get r c_doc)) rows )
  in
  let n = Array.length strings in
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
  (* Skip partners: identical capitalized strings within a document. *)
  let skip_partners =
    if not skip_edges then Array.make n [||]
    else begin
      let partners = Array.make n [||] in
      Array.iter
        (fun (start, stop) ->
          let groups : (string, int list ref) Hashtbl.t = Hashtbl.create 32 in
          for p = start to stop - 1 do
            if Lexicon.is_capitalized strings.(p) then begin
              match Hashtbl.find_opt groups strings.(p) with
              | Some l -> l := p :: !l
              | None -> Hashtbl.replace groups strings.(p) (ref [ p ])
            end
          done;
          Hashtbl.iter
            (fun _ l ->
              let members = Array.of_list (List.rev !l) in
              if Array.length members > 1 then
                Array.iteri
                  (fun idx p ->
                    let others =
                      Array.of_list
                        (List.filteri
                           (fun j _ -> j <> idx)
                           (Array.to_list members))
                    in
                    let others =
                      if Array.length others > max_skip_degree then
                        Array.sub others 0 max_skip_degree
                      else others
                    in
                    partners.(p) <- others)
                  members)
            groups)
        doc_ranges;
      partners
    end
  in
  { params; world; strings; labels; truth; doc_of; doc_ranges; skip_partners; skip_edges;
    clamped = Array.make n false; unclamped_cache = None; string_docs = None }

let params t = t.params
let world t = t.world
let has_skip_edges t = t.skip_edges
let n_tokens t = Array.length t.strings
let n_docs t = Array.length t.doc_ranges
let token_string t i = t.strings.(i)
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
    match t.string_docs with
    | Some h -> h
    | None ->
      let h = Hashtbl.create 1024 in
      (* Dense document indices, built range by range so the dedup head
         check works even when positions of one doc are visited across
         a range boundary. *)
      Array.iteri
        (fun d (start, stop) ->
          for pos = start to stop - 1 do
            let str = t.strings.(pos) in
            match Hashtbl.find_opt h str with
            | Some (d' :: _) when d' = d -> ()
            | Some ds -> Hashtbl.replace h str (d :: ds)
            | None -> Hashtbl.replace h str [ d ]
          done)
        t.doc_ranges;
      t.string_docs <- Some h;
      h
  in
  List.sort Int.compare (Option.value ~default:[] (Hashtbl.find_opt table s))

let label t i = t.labels.(i)
let truth t i = t.truth.(i)
let skip_partners t i = t.skip_partners.(i)

(* ------------------------------------------------------------------ *)
(* Local scoring: all factors that touch position [pos], evaluated with the
   given label for [pos] and current labels elsewhere. *)

let same_doc t i j = t.doc_of.(i) = t.doc_of.(j)

let local_features t ~pos l acc scale =
  let add k v = acc := (k, v *. scale) :: !acc in
  let ls = Labels.to_string l in
  add (Templates.emission_feature t.strings.(pos) ls) 1.;
  add (Templates.shape_feature t.strings.(pos) ls) 1.;
  add (Templates.bias_feature ls) 1.;
  let n = Array.length t.strings in
  if pos > 0 && same_doc t (pos - 1) pos then
    add (Templates.transition_feature (Labels.to_string t.labels.(pos - 1)) ls) 1.;
  if pos + 1 < n && same_doc t pos (pos + 1) then
    add (Templates.transition_feature ls (Labels.to_string t.labels.(pos + 1))) 1.;
  Array.iter
    (fun j -> add (Templates.skip_feature ~same:(t.labels.(j) = l)) 1.)
    t.skip_partners.(pos)

let local_score t ~pos l =
  let acc = ref [] in
  local_features t ~pos l acc 1.;
  Params.dot t.params !acc

let delta_log_score t ~pos l =
  if l = t.labels.(pos) then 0.
  else local_score t ~pos l -. local_score t ~pos t.labels.(pos)

let delta_features t ~pos l =
  if l = t.labels.(pos) then []
  else begin
    let acc = ref [] in
    local_features t ~pos t.labels.(pos) acc (-1.);
    local_features t ~pos l acc 1.;
    (* Merge identical feature names. *)
    let h = Hashtbl.create 16 in
    List.iter
      (fun (k, v) -> Hashtbl.replace h k (v +. Option.value ~default:0. (Hashtbl.find_opt h k)))
      !acc;
    Hashtbl.fold (fun k v out -> if v <> 0. then (k, v) :: out else out) h []
  end

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
  let n = Array.length t.strings in
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
  | F_local pos ->
    let ls = Labels.to_string t.labels.(pos) in
    Params.get t.params (Templates.emission_feature t.strings.(pos) ls)
    +. Params.get t.params (Templates.shape_feature t.strings.(pos) ls)
    +. Params.get t.params (Templates.bias_feature ls)
  | F_trans pos ->
    Params.get t.params
      (Templates.transition_feature
         (Labels.to_string t.labels.(pos))
         (Labels.to_string t.labels.(pos + 1)))
  | F_skip (i, j) ->
    Params.get t.params (Templates.skip_feature ~same:(t.labels.(i) = t.labels.(j)))

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
  let set = Params.set p in
  let emit s l w = set (Templates.emission_feature s (Labels.to_string l)) w in
  Array.iter (fun s -> emit s (Labels.B Per) 2.2) Lexicon.first_names;
  Array.iter
    (fun s ->
      emit s (Labels.I Per) 2.0;
      emit s (Labels.B Per) 0.8)
    Lexicon.last_names;
  Array.iter (fun s -> emit s (Labels.B Org) 2.2) Lexicon.org_words;
  Array.iter (fun s -> emit s (Labels.I Org) 2.0) Lexicon.org_suffixes;
  Array.iter (fun s -> emit s (Labels.B Loc) 2.2) Lexicon.locations;
  Array.iter (fun s -> emit s (Labels.B Misc) 2.0) Lexicon.misc_words;
  (* City strings stay genuinely ambiguous between LOC and ORG: both got
     2.2 above (they sit in both pools), which is the uncertainty Query 4
     relies on. Tilt very slightly toward LOC. *)
  Array.iter (fun s -> emit s (Labels.B Loc) 2.3) Lexicon.ambiguous_city_orgs;
  Array.iter (fun s -> emit s Labels.O 3.5) Lexicon.common_words;
  (* Transitions: continuations must follow their opener. *)
  List.iter
    (fun e ->
      let b = Labels.to_string (Labels.B e) and i = Labels.to_string (Labels.I e) in
      set (Templates.transition_feature b i) 1.2;
      set (Templates.transition_feature i i) 0.8;
      set (Templates.transition_feature "O" i) (-3.);
      List.iter
        (fun e' ->
          if e <> e' then begin
            set (Templates.transition_feature (Labels.to_string (Labels.B e')) i) (-3.);
            set (Templates.transition_feature (Labels.to_string (Labels.I e')) i) (-3.)
          end)
        [ Labels.Per; Labels.Org; Labels.Loc; Labels.Misc ])
    [ Labels.Per; Labels.Org; Labels.Loc; Labels.Misc ];
  set (Templates.transition_feature "O" "O") 0.4;
  (* Bias: "O" is the most frequent label; lowercase shapes are almost
     always O, a weak generalization beyond the lexicon. *)
  set (Templates.bias_feature "O") 0.8;
  set (Templates.shape_feature "a" "O") 0.5;
  (* Skip edges prefer agreeing labels. *)
  set (Templates.skip_feature ~same:true) 0.8;
  set (Templates.skip_feature ~same:false) (-0.4);
  p
