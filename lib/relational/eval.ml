type rel = { schema : Schema.t; bag : Bag.t }

module VH = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

let hash_join ~pairs ~residual sa sb (ba : Bag.t) (bb : Bag.t) =
  let left_pos = Array.of_list (List.map fst pairs) in
  let right_pos = Array.of_list (List.map snd pairs) in
  let out_schema = Schema.concat sa sb in
  let out = Bag.create () in
  let keep =
    match residual with
    | None -> fun _ -> true
    | Some p -> Expr.bind_pred out_schema p
  in
  (* Build on the smaller input, probe with the larger. *)
  let build_left = Bag.distinct_cardinal ba <= Bag.distinct_cardinal bb in
  let build_bag, probe_bag, build_pos, probe_pos =
    if build_left then (ba, bb, left_pos, right_pos) else (bb, ba, right_pos, left_pos)
  in
  let index =
    Key_index.of_bag ~size:(max 16 (Bag.distinct_cardinal build_bag)) build_pos build_bag
  in
  Bag.iter
    (fun row c ->
      Bag.iter
        (fun brow bc ->
          let joined = if build_left then Row.append brow row else Row.append row brow in
          if keep joined then Bag.add ~count:(bc * c) out joined)
        (Key_index.probe index (Key_index.extract probe_pos row)))
    probe_bag;
  { schema = out_schema; bag = out }

let nested_join ?pred sa sb ba bb =
  let out_schema = Schema.concat sa sb in
  let keep =
    match pred with None -> fun _ -> true | Some p -> Expr.bind_pred out_schema p
  in
  let out = Bag.create () in
  Bag.iter
    (fun ra ca ->
      Bag.iter
        (fun rb cb ->
          let joined = Row.append ra rb in
          if keep joined then Bag.add ~count:(ca * cb) out joined)
        bb)
    ba;
  { schema = out_schema; bag = out }

let join_bags ?pred sa sb ba bb =
  match pred with
  | None -> nested_join sa sb ba bb
  | Some p -> (
    match Expr.equi_join_pairs p ~left:sa ~right:sb with
    | Some (pairs, residual) -> hash_join ~pairs ~residual sa sb ba bb
    | None -> nested_join ~pred:p sa sb ba bb)

let eval_group_by db eval_child ~keys ~aggs ~child =
  let crel : rel = eval_child child in
  let cs = crel.schema in
  let keys_pos = Array.of_list (List.map (Schema.index_of cs) keys) in
  let spec = Group_acc.spec_of cs aggs in
  (* Keyed by Row.hash/Row.equal, not the polymorphic Hashtbl: grouping
     must unify exactly the keys Value.equal unifies (Int 1 with Float 1.,
     every NaN with every other NaN). *)
  let groups : Group_acc.t Row.Tbl.t = Row.Tbl.create 64 in
  let get_group k =
    match Row.Tbl.find_opt groups k with
    | Some g -> g
    | None ->
      let acc = Group_acc.create spec in
      Row.Tbl.replace groups k acc;
      acc
  in
  Bag.iter
    (fun row c ->
      let k = Array.map (fun i -> Row.get row i) keys_pos in
      Group_acc.add spec (get_group k) row c)
    crel.bag;
  (* A global aggregate (no keys) over an empty input still yields one row. *)
  if Array.length keys_pos = 0 && Row.Tbl.length groups = 0 then ignore (get_group [||]);
  let out = Bag.create () in
  Row.Tbl.iter
    (fun k acc -> Bag.add out (Array.append k (Group_acc.finalize spec acc)))
    groups;
  let schema = Algebra.output_schema db (Algebra.Group_by { keys; aggs; child }) in
  { schema; bag = out }

let sorted_rows db (keys : (string * Algebra.dir) list) (r : rel) =
  let positions =
    List.map (fun (k, d) -> (Schema.index_of r.schema k, d)) keys
  in
  let cmp (a, _) (b, _) =
    let rec go = function
      | [] -> Row.compare a b (* deterministic tie-break *)
      | (i, d) :: rest ->
        let c = Value.compare (Row.get a i) (Row.get b i) in
        if c = 0 then go rest
        else (match d with Algebra.Asc -> c | Algebra.Desc -> -c)
    in
    go positions
  in
  ignore db;
  List.sort cmp (Bag.fold (fun row c acc -> (row, c) :: acc) r.bag [])

let limit_rows limit rows =
  match limit with
  | None -> rows
  | Some n ->
    let rec take budget = function
      | [] -> []
      | (row, c) :: rest ->
        if budget <= 0 then []
        else if c >= budget then [ (row, budget) ]
        else (row, c) :: take (budget - c) rest
    in
    take n rows

(* Observability: per-operator output cardinalities and evaluation counts
   ("relop.<op>.rows" / "relop.<op>.evals", see docs/OBSERVABILITY.md).
   Recursion goes through the instrumented [eval] wrapper, so every node of
   a plan is accounted, at O(1) per node ([Bag.distinct_cardinal] is a
   hashtable length read) and zero cost when collection is disabled. *)
let op_names =
  [| "scan"; "select"; "project"; "product"; "join"; "distinct"; "union"; "diff";
     "group_by"; "count_join"; "order_by" |]

let op_index : Algebra.t -> int = function
  | Algebra.Scan _ -> 0
  | Select _ -> 1
  | Project _ -> 2
  | Product _ -> 3
  | Join _ -> 4
  | Distinct _ -> 5
  | Union _ -> 6
  | Diff _ -> 7
  | Group_by _ -> 8
  | Count_join _ -> 9
  | Order_by _ -> 10

let op_rows = Array.map (fun n -> Obs.Metrics.counter ("relop." ^ n ^ ".rows")) op_names
let op_evals = Array.map (fun n -> Obs.Metrics.counter ("relop." ^ n ^ ".evals")) op_names

let rec eval db (q : Algebra.t) : rel =
  let r = eval_node db q in
  if Obs.Metrics.enabled () then begin
    let i = op_index q in
    Obs.Metrics.incr op_evals.(i);
    Obs.Metrics.add op_rows.(i) (Bag.distinct_cardinal r.bag)
  end;
  r

and eval_node db (q : Algebra.t) : rel =
  let eval_child = eval db in
  match q with
  | Scan { table; alias } ->
    let t = Database.table db table in
    let schema =
      match alias with None -> Table.schema t | Some a -> Schema.qualify a (Table.schema t)
    in
    { schema; bag = Table.rows t }
  | Select (p, q) -> (
    (* Index fast path: a selection directly over a base scan whose
       predicate contains an equality [col = const] on an indexed column
       probes the index and filters the residual. *)
    let index_probe () =
      match q with
      | Algebra.Scan { table; alias } -> (
        let t = Database.table db table in
        let schema =
          match alias with None -> Table.schema t | Some a -> Schema.qualify a (Table.schema t)
        in
        let rec conjuncts = function
          | Expr.And (a, b) -> conjuncts a @ conjuncts b
          | e -> [ e ]
        in
        let cs = conjuncts p in
        let probe =
          List.find_map
            (fun c ->
              match c with
              | Expr.Cmp (Expr.Eq, Expr.Col col, Expr.Const v)
              | Expr.Cmp (Expr.Eq, Expr.Const v, Expr.Col col) ->
                let bare = Schema.bare col in
                if Table.has_index t bare then Some (bare, v, c) else None
              | _ -> None)
            cs
        in
        match probe with
        | None -> None
        | Some (col, v, used) ->
          let candidates = Table.lookup t ~column:col v in
          let residual = List.filter (fun c -> c != used) cs in
          let bag =
            match residual with
            | [] -> Bag.copy candidates
            | rs -> Bag.filter (Expr.bind_pred schema (Expr.conj rs)) candidates
          in
          Some { schema; bag })
      | _ -> None
    in
    match index_probe () with
    | Some r -> r
    | None ->
      let r = eval_child q in
      let keep = Expr.bind_pred r.schema p in
      { r with bag = Bag.filter keep r.bag })
  | Project (cols, q) ->
    let r = eval_child q in
    let schema, positions = Schema.project r.schema cols in
    let bag = Bag.map_rows (fun row -> Array.map (fun i -> Row.get row i) positions) r.bag in
    { schema; bag }
  | Product (a, b) ->
    let ra = eval_child a and rb = eval_child b in
    nested_join ra.schema rb.schema ra.bag rb.bag
  | Join (p, a, b) ->
    let ra = eval_child a and rb = eval_child b in
    (match Expr.equi_join_pairs p ~left:ra.schema ~right:rb.schema with
    | Some (pairs, residual) -> hash_join ~pairs ~residual ra.schema rb.schema ra.bag rb.bag
    | None -> nested_join ~pred:p ra.schema rb.schema ra.bag rb.bag)
  | Distinct q ->
    let r = eval_child q in
    let out = Bag.create () in
    Bag.iter (fun row c -> if c > 0 then Bag.add out row) r.bag;
    { r with bag = out }
  | Union (a, b) ->
    let ra = eval_child a and rb = eval_child b in
    if Schema.arity ra.schema <> Schema.arity rb.schema then
      failwith "Eval: union arity mismatch";
    let out = Bag.copy ra.bag in
    Bag.add_bag out rb.bag;
    { ra with bag = out }
  | Diff (a, b) ->
    let ra = eval_child a and rb = eval_child b in
    if Schema.arity ra.schema <> Schema.arity rb.schema then
      failwith "Eval: diff arity mismatch";
    (* Multiset monus: counts clamp at zero. *)
    let out = Bag.create () in
    Bag.iter
      (fun row c ->
        let c' = max 0 (c - Bag.count rb.bag row) in
        if c' > 0 then Bag.add ~count:c' out row)
      ra.bag;
    { ra with bag = out }
  | Group_by { keys; aggs; child } -> eval_group_by db eval_child ~keys ~aggs ~child
  | Count_join { child; key; sub; sub_key; as_name } ->
    let rc = eval_child child and rs = eval_child sub in
    let kpos = Schema.index_of rc.schema key in
    let skpos = Schema.index_of rs.schema sub_key in
    let counts = VH.create 64 in
    Bag.iter
      (fun row c ->
        let v = Row.get row skpos in
        VH.replace counts v (c + Option.value ~default:0 (VH.find_opt counts v)))
      rs.bag;
    let out = Bag.create () in
    Bag.iter
      (fun row c ->
        let n = Option.value ~default:0 (VH.find_opt counts (Row.get row kpos)) in
        Bag.add ~count:c out (Array.append row [| Value.Int n |]))
      rc.bag;
    let schema =
      Algebra.output_schema db (Algebra.Count_join { child; key; sub; sub_key; as_name })
    in
    { schema; bag = out }
  | Order_by { keys; limit; child } ->
    let r = eval_child child in
    (match limit with
    | None -> r
    | Some _ ->
      let rows = limit_rows limit (sorted_rows db keys r) in
      let out = Bag.create () in
      List.iter (fun (row, c) -> Bag.add ~count:c out row) rows;
      { r with bag = out })
