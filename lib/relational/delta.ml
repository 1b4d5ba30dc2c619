type t = Bag.t Str_tbl.t

let create () = Str_tbl.create 4

let bag_for d table =
  match Str_tbl.find_opt d table with
  | Some b -> b
  | None ->
    let b = Bag.create () in
    Str_tbl.replace d table b;
    b

let record_insert d ~table row = Bag.add (bag_for d table) row
let record_delete d ~table row = Bag.remove (bag_for d table) row

let record_update d ~table ~old_row ~new_row =
  let b = bag_for d table in
  Bag.remove b old_row;
  Bag.add b new_row

let for_table d table = Str_tbl.find_opt d table
let tables d = Str_tbl.fold (fun name _ acc -> name :: acc) d []
let is_empty d = Str_tbl.fold (fun _ b acc -> acc && Bag.is_empty b) d true

let total_magnitude d =
  Str_tbl.fold (fun _ b acc -> Bag.fold (fun _ c acc -> acc + abs c) b acc) d 0
