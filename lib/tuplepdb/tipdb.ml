open Relational

type table = {
  schema : Schema.t;
  rows : (Row.t * int) list; (* row, event id *)
}

type t = {
  tables : (string, table) Hashtbl.t;
  mutable probs : float array;
  mutable n_events : int;
}

type answer = { row : Row.t; lineage : Lineage.t }

let create () =
  { tables = Hashtbl.create 8; probs = Array.make 64 0.; n_events = 0 }

let fresh_event t p =
  if p < 0. || p > 1. then invalid_arg "Tipdb: probability out of [0,1]";
  let id = t.n_events in
  if id = Array.length t.probs then begin
    let bigger = Array.make (2 * id) 0. in
    Array.blit t.probs 0 bigger 0 id;
    t.probs <- bigger
  end;
  t.probs.(id) <- p;
  t.n_events <- id + 1;
  id

let add_table t ~name schema rows =
  if Hashtbl.mem t.tables name then invalid_arg ("Tipdb.add_table: duplicate " ^ name);
  let rows =
    List.map (fun (row, p) -> (row, fresh_event t p)) rows
  in
  Hashtbl.replace t.tables name { schema; rows }

let probability_of_event t ev = t.probs.(ev)

module RH = Hashtbl.Make (struct
  type t = Row.t

  let equal = Row.equal
  let hash = Row.hash
end)

(* Merge answers with equal rows by OR-ing their lineages. *)
let merge answers =
  let acc = RH.create 32 in
  List.iter
    (fun { row; lineage } ->
      match RH.find_opt acc row with
      | None -> RH.replace acc row lineage
      | Some l -> RH.replace acc row (Lineage.disj [ l; lineage ]))
    answers;
  RH.fold (fun row lineage out -> { row; lineage } :: out) acc []

let rec eval t (q : Algebra.t) : Schema.t * answer list =
  match q with
  | Scan { table; alias } ->
    let tbl =
      match Hashtbl.find_opt t.tables table with
      | Some tbl -> tbl
      | None -> failwith ("Tipdb.eval: unknown table " ^ table)
    in
    let schema =
      match alias with None -> tbl.schema | Some a -> Schema.qualify a tbl.schema
    in
    (schema, List.map (fun (row, ev) -> { row; lineage = Lineage.var ev }) tbl.rows)
  | Select (p, child) ->
    let schema, answers = eval t child in
    let keep = Expr.bind_pred schema p in
    (schema, List.filter (fun a -> keep a.row) answers)
  | Project (cols, child) ->
    let schema, answers = eval t child in
    let out_schema, positions = Schema.project schema cols in
    let projected =
      List.map
        (fun a -> { a with row = Array.map (fun i -> Row.get a.row i) positions })
        answers
    in
    (out_schema, merge projected)
  | Distinct child ->
    let schema, answers = eval t child in
    (schema, merge answers)
  | Product (a, b) ->
    let sa, xs = eval t a in
    let sb, ys = eval t b in
    let out =
      List.concat_map
        (fun x ->
          List.map
            (fun y -> { row = Row.append x.row y.row; lineage = Lineage.conj [ x.lineage; y.lineage ] })
            ys)
        xs
    in
    (Schema.concat sa sb, out)
  | Join (p, a, b) ->
    let schema, answers = eval t (Product (a, b)) in
    let keep = Expr.bind_pred schema p in
    (schema, List.filter (fun ans -> keep ans.row) answers)
  | Union (a, b) ->
    let sa, xs = eval t a in
    let _, ys = eval t b in
    (sa, merge (xs @ ys))
  | Diff _ -> failwith "Tipdb.eval: difference requires negated lineage; unsupported"
  | Group_by _ | Count_join _ ->
    failwith
      "Tipdb.eval: aggregates are not expressible in intensional tuple-independent \
       semantics — the factor-graph sampler evaluates them directly (paper, section 1)"
  | Order_by _ -> failwith "Tipdb.eval: ORDER BY has no intensional semantics here"

let answer_probabilities ?(method_ = `Exact) ?budget t q =
  let _, answers = eval t q in
  let prob ev = t.probs.(ev) in
  List.map
    (fun { row; lineage } ->
      let p =
        match method_ with
        | `Exact -> Lineage.exact_probability ?budget prob lineage
        | `Monte_carlo (samples, seed) ->
          Lineage.monte_carlo prob ~rng:(Prng.of_seeds [| seed |]) ~samples lineage
      in
      (row, p))
    answers
  |> List.sort (fun (a, _) (b, _) -> Row.compare a b)
