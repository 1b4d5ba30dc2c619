module H = Row.Tbl

type t = { pos : int array; entries : Bag.t H.t }

let create ?(size = 64) pos = { pos; entries = H.create size }
let extract pos row = Array.map (fun i -> Row.get row i) pos

let add ?(count = 1) t row =
  if count <> 0 then begin
    let k = extract t.pos row in
    let bag =
      match H.find_opt t.entries k with
      | Some b -> b
      | None ->
        let b = Bag.create ~size:4 () in
        H.replace t.entries k b;
        b
    in
    Bag.add ~count bag row;
    if Bag.is_empty bag then H.remove t.entries k
  end

let add_bag ?(scale = 1) t bag = Bag.iter (fun row c -> add ~count:(scale * c) t row) bag

let of_bag ?size pos bag =
  let t = create ?size pos in
  add_bag t bag;
  t

let probe t k = Option.value ~default:Bag.empty (H.find_opt t.entries k)
let probe_value t v = probe t [| v |]
let distinct_keys t = H.length t.entries
let clear t = H.reset t.entries
