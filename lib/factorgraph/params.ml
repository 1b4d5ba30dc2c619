type t = (string, float) Hashtbl.t

let create () = Hashtbl.create 256
let get p k = Option.value ~default:0. (Hashtbl.find_opt p k)
let set p k w = if w = 0. then Hashtbl.remove p k else Hashtbl.replace p k w
let update p k dw = set p k (get p k +. dw)
let update_sparse p feats ~scale = List.iter (fun (k, v) -> update p k (scale *. v)) feats
let dot p feats = List.fold_left (fun acc (k, v) -> acc +. (get p k *. v)) 0. feats

let cardinal = Hashtbl.length
let copy = Hashtbl.copy
