open Relational

type t = {
  db : Database.t;
  mutable delta : Delta.t;
}

let create db = { db; delta = Delta.create () }
let db w = w.db

let get_field w (f : Field.t) =
  let table = Database.table w.db f.table in
  let pos = Schema.index_of (Table.schema table) f.column in
  match Table.cell_by_pk table f.key ~pos with
  | None ->
    invalid_arg
      (Printf.sprintf "World.get_field: no row %s in %s" (Value.to_string f.key) f.table)
  | Some v -> v

let set_field w (f : Field.t) value =
  let table = Database.table w.db f.table in
  let current = get_field w f in
  if not (Value.equal current value) then begin
    let old_row, new_row = Table.update_field_by_pk table f.key ~column:f.column value in
    Delta.record_update w.delta ~table:(Table.name table) ~old_row ~new_row
  end

let pending_delta w = w.delta

let drain_delta w =
  let d = w.delta in
  w.delta <- Delta.create ();
  d
