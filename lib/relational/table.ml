module VH = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

type index = { col : int; entries : Key_index.t }

(* Two storage backends behind one table API. Boxed is the general
   multiset store the query surface has always had; Columnar is the
   compact int-coded store for large single-key relations (TOKEN at
   paper scale), where Value.t rows exist only transiently at the
   encode/decode boundary. *)
type boxed = { rows : Bag.t; by_pk : Row.t VH.t; mutable indexes : index list }
type store = Boxed of boxed | Columnar of Col_store.t

type t = { tname : string; schema : Schema.t; pk : int option; store : store }

let create ?pk ~name schema =
  let pk = Option.map (Schema.index_of schema) pk in
  {
    tname = name;
    schema;
    pk;
    store = Boxed { rows = Bag.create (); by_pk = VH.create 64; indexes = [] };
  }

let create_columnar ~pk ~name schema =
  let pk = Schema.index_of schema pk in
  { tname = name; schema; pk = Some pk; store = Columnar (Col_store.create ~pk ~name schema) }

let storage t = match t.store with Boxed _ -> `Boxed | Columnar _ -> `Columnar
let name t = t.tname
let schema t = t.schema
let pk_column t = Option.map (fun i -> (Schema.column t.schema i).Schema.name) t.pk

let cardinal t =
  match t.store with Boxed b -> Bag.total b.rows | Columnar c -> Col_store.cardinal c

let index_add idx row count = Key_index.add ~count idx.entries row

let insert t row =
  if Array.length row <> Schema.arity t.schema then
    invalid_arg (Printf.sprintf "Table.insert(%s): arity mismatch" t.tname);
  match t.store with
  | Columnar c -> Col_store.insert c row
  | Boxed b ->
    (match t.pk with
    | None -> ()
    | Some k ->
      let key = Row.get row k in
      if VH.mem b.by_pk key then
        invalid_arg
          (Printf.sprintf "Table.insert(%s): duplicate key %s" t.tname (Value.to_string key));
      VH.replace b.by_pk key row);
    Bag.add b.rows row;
    List.iter (fun idx -> index_add idx row 1) b.indexes

let delete t row =
  match t.store with
  | Columnar c -> Col_store.delete c row
  | Boxed b ->
    if not (Bag.mem b.rows row) then raise Not_found;
    (match t.pk with
    | None -> ()
    | Some k -> VH.remove b.by_pk (Row.get row k));
    Bag.remove b.rows row;
    List.iter (fun idx -> index_add idx row (-1)) b.indexes

let find_by_pk t key =
  match t.store with
  | Boxed b -> VH.find_opt b.by_pk key
  | Columnar c -> Option.map (Col_store.decode_row c) (Col_store.find_slot c key)

let cell_by_pk t key ~pos =
  match t.store with
  | Boxed b -> Option.map (fun row -> Row.get row pos) (VH.find_opt b.by_pk key)
  | Columnar c ->
    Option.map (fun slot -> Col_store.decode_cell c ~col:pos slot) (Col_store.find_slot c key)

let update_by_pk t key row =
  match t.store with
  | Columnar c -> (
    match Col_store.find_slot c key with
    | None ->
      invalid_arg
        (Printf.sprintf "Table.update_by_pk(%s): no key %s" t.tname (Value.to_string key))
    | Some slot ->
      let k = match t.pk with Some k -> k | None -> assert false in
      if not (Value.equal (Row.get row k) key) then
        invalid_arg "Table.update_by_pk: key change not supported";
      let old_row = Col_store.decode_row c slot in
      Array.iteri
        (fun col v ->
          if not (Int.equal col k) && not (Value.equal v (Row.get old_row col)) then
            Col_store.set_cell c ~col slot v)
        row;
      old_row)
  | Boxed b -> (
    match VH.find_opt b.by_pk key with
    | None ->
      invalid_arg
        (Printf.sprintf "Table.update_by_pk(%s): no key %s" t.tname (Value.to_string key))
    | Some old_row ->
      let k = match t.pk with Some k -> k | None -> assert false in
      if not (Value.equal (Row.get row k) key) then
        invalid_arg "Table.update_by_pk: key change not supported";
      Bag.remove b.rows old_row;
      Bag.add b.rows row;
      VH.replace b.by_pk key row;
      List.iter
        (fun idx ->
          index_add idx old_row (-1);
          index_add idx row 1)
        b.indexes;
      old_row)

let update_field_by_pk t key ~column v =
  let pos = Schema.index_of t.schema column in
  match t.store with
  | Columnar c -> (
    (* One slot probe and one decode — the MH hot path; routing through
       find_by_pk + update_by_pk would decode the row three times. *)
    match Col_store.find_slot c key with
    | None ->
      invalid_arg
        (Printf.sprintf "Table.update_field_by_pk(%s): no key %s" t.tname (Value.to_string key))
    | Some slot ->
      let old_row = Col_store.decode_row c slot in
      let new_row = Row.set old_row pos v in
      Col_store.set_cell c ~col:pos slot v;
      (old_row, new_row))
  | Boxed _ -> (
    match find_by_pk t key with
    | None ->
      invalid_arg
        (Printf.sprintf "Table.update_field_by_pk(%s): no key %s" t.tname (Value.to_string key))
    | Some old_row ->
      let new_row = Row.set old_row pos v in
      ignore (update_by_pk t key new_row);
      (old_row, new_row))

let rows t = match t.store with Boxed b -> b.rows | Columnar c -> Col_store.to_bag c

let select t eqs keep =
  match t.store with
  | Boxed b -> Bag.filter keep b.rows
  | Columnar c -> Col_store.select c eqs keep

let sorted_entries t =
  match t.store with
  | Columnar c -> (
    match Col_store.pk_ordered_entries c with
    | Some entries -> entries
    | None -> Bag.to_list (Col_store.to_bag c))
  | Boxed b -> Bag.to_list b.rows

let create_index t column =
  let col = Schema.index_of t.schema column in
  match t.store with
  | Columnar c -> Col_store.create_index c col
  | Boxed b ->
    b.indexes <- List.filter (fun idx -> not (Int.equal idx.col col)) b.indexes;
    let idx = { col; entries = Key_index.of_bag ~size:256 [| col |] b.rows } in
    b.indexes <- idx :: b.indexes

let distinct_keys t column =
  match Schema.index_of t.schema column with
  | exception Not_found -> None
  | exception Schema.Ambiguous_column _ -> None
  | col -> (
    let is_pk = match t.pk with Some k -> Int.equal k col | None -> false in
    match t.store with
    | Columnar c -> Col_store.distinct_in_index c col
    | Boxed b ->
      if is_pk then Some (VH.length b.by_pk)
      else
        Option.map
          (fun idx -> Key_index.distinct_keys idx.entries)
          (List.find_opt (fun idx -> Int.equal idx.col col) b.indexes))

let has_index t column =
  match Schema.index_of t.schema column with
  | col -> (
    match t.store with
    | Columnar c -> Col_store.has_index c col
    | Boxed b -> List.exists (fun idx -> Int.equal idx.col col) b.indexes)
  | exception Not_found -> false

let lookup t ~column v =
  let col = Schema.index_of t.schema column in
  match t.store with
  | Columnar c -> (
    try Col_store.lookup c ~col v
    with Not_found ->
      invalid_arg (Printf.sprintf "Table.lookup(%s): no index on %s" t.tname column))
  | Boxed b -> (
    match List.find_opt (fun idx -> Int.equal idx.col col) b.indexes with
    | None -> invalid_arg (Printf.sprintf "Table.lookup(%s): no index on %s" t.tname column)
    | Some idx -> Key_index.probe_value idx.entries v)

let column_ints t column =
  let col = Schema.index_of t.schema column in
  match t.store with Boxed _ -> None | Columnar c -> Col_store.column_ints c col
