(* Dense weights: [ids] interns a feature name to an id once, and the id
   indexes [weights] from then on. Slots [0 .. n-1] of [names] and
   [weights] are live; both arrays double when full. *)
type t = {
  ids : (string, int) Hashtbl.t;
  mutable names : string array;
  mutable weights : float array;
  mutable n : int;
}

let create () = { ids = Hashtbl.create 256; names = [||]; weights = [||]; n = 0 }

let intern p k =
  match Hashtbl.find_opt p.ids k with
  | Some id -> id
  | None ->
    let id = p.n in
    if id = Array.length p.weights then begin
      let cap = max 256 (2 * id) in
      let names = Array.make cap "" and weights = Array.make cap 0. in
      Array.blit p.names 0 names 0 id;
      Array.blit p.weights 0 weights 0 id;
      p.names <- names;
      p.weights <- weights
    end;
    p.names.(id) <- k;
    Hashtbl.replace p.ids k id;
    p.n <- id + 1;
    id

let weights p = p.weights
let name p id = p.names.(id)

(* A zeroed weight is stored as +0., the value of a weight never set, so
   a sum over it has the same bits either way. *)
let set_weight p id w = p.weights.(id) <- (if w = 0. then 0. else w)

let get p k = match Hashtbl.find_opt p.ids k with Some id -> p.weights.(id) | None -> 0.

let set p k w =
  match Hashtbl.find_opt p.ids k with
  | Some id -> set_weight p id w
  | None -> if w <> 0. then set_weight p (intern p k) w

let update p k dw = set p k (get p k +. dw)
let update_sparse p feats ~scale = List.iter (fun (k, v) -> update p k (scale *. v)) feats
let dot p feats = List.fold_left (fun acc (k, v) -> acc +. (get p k *. v)) 0. feats

let cardinal p =
  let c = ref 0 in
  for id = 0 to p.n - 1 do
    if p.weights.(id) <> 0. then incr c
  done;
  !c

let copy p =
  { ids = Hashtbl.copy p.ids; names = Array.copy p.names; weights = Array.copy p.weights; n = p.n }
