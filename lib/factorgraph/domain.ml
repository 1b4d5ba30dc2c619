type t = { values : string array; indices : (string, int) Hashtbl.t }

let make values =
  if values = [] then invalid_arg "Domain.make: empty domain";
  let arr = Array.of_list values in
  let indices = Hashtbl.create (Array.length arr) in
  Array.iteri
    (fun i v ->
      if Hashtbl.mem indices v then invalid_arg ("Domain.make: duplicate value " ^ v);
      Hashtbl.add indices v i)
    arr;
  { values = arr; indices }

let size d = Array.length d.values
let value d i = d.values.(i)
let index_opt d v = Hashtbl.find_opt d.indices v
let boolean = make [ "false"; "true" ]
