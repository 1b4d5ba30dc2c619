type t = Value.t array

let make = Array.of_list
let get (r : t) i = r.(i)

let set (r : t) i v =
  let r' = Array.copy r in
  r'.(i) <- v;
  r'

let append = Array.append

let compare (a : t) (b : t) =
  let n = Array.length a and m = Array.length b in
  if not (Int.equal n m) then Int.compare n m
  else
    let rec loop i =
      if i >= n then 0
      else
        let c = Value.compare a.(i) b.(i) in
        if c <> 0 then c else loop (i + 1)
    in
    loop 0

let equal a b = compare a b = 0

let hash (r : t) =
  Array.fold_left (fun acc v -> (acc * 1000003) lxor Value.hash v) 5381 r

let to_string r =
  "(" ^ String.concat ", " (List.map Value.to_string (Array.to_list r)) ^ ")"

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
