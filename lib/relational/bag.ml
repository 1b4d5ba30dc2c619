module H = Hashtbl.Make (struct
  type t = Row.t

  let equal = Row.equal
  let hash = Row.hash
end)

type t = int H.t

let create ?(size = 64) () = H.create size
let empty = H.create 1
let is_empty b = H.length b = 0
let count b r = Option.value ~default:0 (H.find_opt b r)
let mem b r = count b r > 0

let add ?(count = 1) b r =
  if count <> 0 then begin
    let c = (Option.value ~default:0 (H.find_opt b r)) + count in
    if c = 0 then H.remove b r else H.replace b r c
  end

let remove ?(count = 1) b r = add ~count:(-count) b r
let distinct_cardinal = H.length
let total b = H.fold (fun _ c acc -> acc + c) b 0
let iter f b = H.iter f b
let fold f b init = H.fold f b init
let add_bag ?(scale = 1) dst src = H.iter (fun r c -> add ~count:(scale * c) dst r) src

let copy = H.copy

let to_list b =
  H.fold (fun r c acc -> (r, c) :: acc) b []
  |> List.sort (fun (a, _) (b, _) -> Row.compare a b)

let rows b =
  to_list b |> List.filter_map (fun (r, c) -> if c > 0 then Some r else None)

let map_rows f b =
  let out = create ~size:(H.length b) () in
  H.iter (fun r c -> add ~count:c out (f r)) b;
  out

let filter p b =
  let out = create () in
  H.iter (fun r c -> if p r then add ~count:c out r) b;
  out
