type t =
  | Tru
  | Fls
  | Var of int
  | And of t list
  | Or of t list
  | Not of t

let var i = Var i

let conj fs =
  let rec flatten acc = function
    | [] -> Some acc
    | Tru :: rest -> flatten acc rest
    | Fls :: _ -> None
    | And gs :: rest -> (
      match flatten acc gs with None -> None | Some acc -> flatten acc rest)
    | f :: rest -> flatten (f :: acc) rest
  in
  match flatten [] fs with
  | None -> Fls
  | Some [] -> Tru
  | Some [ f ] -> f
  | Some fs -> And (List.rev fs)

let disj fs =
  let rec flatten acc = function
    | [] -> Some acc
    | Fls :: rest -> flatten acc rest
    | Tru :: _ -> None
    | Or gs :: rest -> (
      match flatten acc gs with None -> None | Some acc -> flatten acc rest)
    | f :: rest -> flatten (f :: acc) rest
  in
  match flatten [] fs with
  | None -> Tru
  | Some [] -> Fls
  | Some [ f ] -> f
  | Some fs -> Or (List.rev fs)

let neg = function Tru -> Fls | Fls -> Tru | Not f -> f | f -> Not f

let vars f =
  let seen = Hashtbl.create 16 in
  let rec go = function
    | Tru | Fls -> ()
    | Var i -> Hashtbl.replace seen i ()
    | And fs | Or fs -> List.iter go fs
    | Not f -> go f
  in
  go f;
  List.sort compare (Hashtbl.fold (fun i () acc -> i :: acc) seen [])

let rec eval env = function
  | Tru -> true
  | Fls -> false
  | Var i -> env i
  | And fs -> List.for_all (eval env) fs
  | Or fs -> List.exists (eval env) fs
  | Not f -> not (eval env f)

(* Condition a formula on [v = value] and simplify. *)
let rec condition v value = function
  | Tru -> Tru
  | Fls -> Fls
  | Var i when i = v -> if value then Tru else Fls
  | Var i -> Var i
  | And fs -> conj (List.map (condition v value) fs)
  | Or fs -> disj (List.map (condition v value) fs)
  | Not f -> neg (condition v value f)

let exact_probability ?(budget = 2_000_000) prob f =
  let memo : (t, float) Hashtbl.t = Hashtbl.create 256 in
  let nodes = ref 0 in
  let rec go f =
    match f with
    | Tru -> 1.
    | Fls -> 0.
    | Var i -> prob i
    | _ -> (
      match Hashtbl.find_opt memo f with
      | Some p -> p
      | None ->
        incr nodes;
        if !nodes > budget then failwith "Lineage.exact_probability: budget exhausted";
        (* Shannon expansion on the first variable. *)
        let v =
          let rec first = function
            | Tru | Fls -> None
            | Var i -> Some i
            | Not g -> first g
            | And fs | Or fs -> List.find_map first fs
          in
          match first f with Some v -> v | None -> assert false
        in
        let p = prob v in
        let result =
          (p *. go (condition v true f)) +. ((1. -. p) *. go (condition v false f))
        in
        Hashtbl.replace memo f result;
        result)
  in
  go f

let monte_carlo prob ~rng ~samples f =
  let vs = Array.of_list (vars f) in
  let assign = Hashtbl.create (Array.length vs) in
  let hits = ref 0 in
  for _ = 1 to samples do
    Array.iter (fun v -> Hashtbl.replace assign v (Prng.bernoulli rng (prob v))) vs;
    if eval (Hashtbl.find assign) f then incr hits
  done;
  float_of_int !hits /. float_of_int samples

let rec pp fmt = function
  | Tru -> Format.pp_print_string fmt "⊤"
  | Fls -> Format.pp_print_string fmt "⊥"
  | Var i -> Format.fprintf fmt "x%d" i
  | And fs ->
    Format.fprintf fmt "(%a)"
      (Format.pp_print_list ~pp_sep:(fun f () -> Format.pp_print_string f " ∧ ") pp)
      fs
  | Or fs ->
    Format.fprintf fmt "(%a)"
      (Format.pp_print_list ~pp_sep:(fun f () -> Format.pp_print_string f " ∨ ") pp)
      fs
  | Not f -> Format.fprintf fmt "¬%a" pp f
