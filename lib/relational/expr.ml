type cmp = Eq | Neq | Lt | Le | Gt | Ge
type arith = Add | Sub | Mul

type t =
  | Col of string
  | Const of Value.t
  | Cmp of cmp * t * t
  | And of t * t
  | Or of t * t
  | Not of t
  | Arith of arith * t * t
  | Like of t * string
  | Is_null of t

let col c = Col c
let int n = Const (Value.Int n)
let text s = Const (Value.Text s)
let ( = ) a b = Cmp (Eq, a, b)
let ( <> ) a b = Cmp (Neq, a, b)
let ( < ) a b = Cmp (Lt, a, b)
let ( <= ) a b = Cmp (Le, a, b)
let ( > ) a b = Cmp (Gt, a, b)
let ( >= ) a b = Cmp (Ge, a, b)
let ( && ) a b = And (a, b)
let ( || ) a b = Or (a, b)
let not_ e = Not e

let conj = function
  | [] -> Const (Value.Bool true)
  | e :: rest -> List.fold_left (fun acc p -> And (acc, p)) e rest

let in_list e vs =
  match vs with
  | [] -> Const (Value.Bool false)
  | v :: rest ->
    List.fold_left (fun acc v -> Or (acc, Cmp (Eq, e, Const v))) (Cmp (Eq, e, Const v)) rest

let between e lo hi = And (Cmp (Ge, e, Const lo), Cmp (Le, e, Const hi))

(* LIKE: '%' matches any run, '_' any single char; classic backtracking
   matcher (patterns are tiny). *)
let like_match ~pattern s =
  let open Stdlib in
  let np = String.length pattern and ns = String.length s in
  let rec go pi si =
    if pi >= np then si >= ns
    else
      match pattern.[pi] with
      | '%' ->
        let rec try_from k = k <= ns && (go (pi + 1) k || try_from (k + 1)) in
        try_from si
      | '_' -> si < ns && go (pi + 1) (si + 1)
      | c -> si < ns && Char.equal s.[si] c && go (pi + 1) (si + 1)
  in
  go 0 0

let columns e =
  let seen = Str_tbl.create 8 in
  let out = ref [] in
  let rec go = function
    | Col c ->
      if not (Str_tbl.mem seen c) then begin
        Str_tbl.add seen c ();
        out := c :: !out
      end
    | Const _ -> ()
    | Cmp (_, a, b) | And (a, b) | Or (a, b) | Arith (_, a, b) ->
      go a;
      go b
    | Not a | Like (a, _) | Is_null a -> go a
  in
  go e;
  List.rev !out

let cmp_fn op a b =
  let c = Value.compare a b in
  match op with
  | Eq -> Stdlib.( = ) c 0
  | Neq -> Stdlib.( <> ) c 0
  | Lt -> Stdlib.( < ) c 0
  | Le -> Stdlib.( <= ) c 0
  | Gt -> Stdlib.( > ) c 0
  | Ge -> Stdlib.( >= ) c 0

let rec bind schema e : Row.t -> Value.t =
  match e with
  | Col c ->
    let i = Schema.index_of schema c in
    fun row -> Row.get row i
  | Const v -> fun _ -> v
  | Cmp (op, a, b) ->
    let fa = bind schema a and fb = bind schema b in
    fun row -> Value.Bool (cmp_fn op (fa row) (fb row))
  | And (a, b) ->
    let fa = bind schema a and fb = bind schema b in
    fun row -> Value.Bool (Stdlib.( && ) (Value.is_truthy (fa row)) (Value.is_truthy (fb row)))
  | Or (a, b) ->
    let fa = bind schema a and fb = bind schema b in
    fun row -> Value.Bool (Stdlib.( || ) (Value.is_truthy (fa row)) (Value.is_truthy (fb row)))
  | Not a ->
    let fa = bind schema a in
    fun row -> Value.Bool (Stdlib.not (Value.is_truthy (fa row)))
  | Arith (op, a, b) ->
    let fa = bind schema a and fb = bind schema b in
    let f = match op with Add -> Value.add | Sub -> Value.sub | Mul -> Value.mul in
    fun row -> f (fa row) (fb row)
  | Like (a, pattern) ->
    let fa = bind schema a in
    fun row ->
      (match fa row with
      | Value.Null -> Value.Bool false
      | v -> Value.Bool (like_match ~pattern (Value.to_string v)))
  | Is_null a ->
    let fa = bind schema a in
    fun row -> Value.Bool (Value.equal (fa row) Value.Null)

let bind_pred schema e =
  let f = bind schema e in
  fun row -> Value.is_truthy (f row)

let eval schema e row = bind schema e row

let rec conjuncts = function
  | And (a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

let eq_constants schema pred =
  List.filter_map
    (function
      | Cmp (Eq, Col c, Const v) | Cmp (Eq, Const v, Col c) -> (
        match Schema.index_of schema c with
        | i -> Some (i, v)
        | exception (Not_found | Schema.Ambiguous_column _) -> None)
      | _ -> None)
    (conjuncts pred)

let equi_join_pairs pred ~left ~right =
  let both = Schema.concat left right in
  let side c =
    (* A column belongs to the left input iff it resolves there; ambiguity
       between the two inputs disqualifies the pair. *)
    match Schema.index_of left c with
    | i -> Some (`L i)
    | exception Not_found -> (
      match Schema.index_of right c with
      | i -> Some (`R i)
      | exception Not_found -> None
      | exception Schema.Ambiguous_column _ -> None)
    | exception Schema.Ambiguous_column _ -> None
  in
  let pairs = ref [] and residual = ref [] in
  List.iter
    (fun c ->
      match c with
      | Cmp (Eq, Col a, Col b) -> (
        match side a, side b with
        | Some (`L i), Some (`R j) -> pairs := (i, j) :: !pairs
        | Some (`R j), Some (`L i) -> pairs := (i, j) :: !pairs
        | _ -> residual := c :: !residual)
      | _ -> residual := c :: !residual)
    (conjuncts pred);
  match !pairs with
  | [] -> None
  | ps ->
    let res =
      match !residual with
      | [] -> None
      | cs ->
        (* Validate the residual against the concatenated schema eagerly. *)
        let e = conj (List.rev cs) in
        ignore (bind both e : Row.t -> Value.t);
        Some e
    in
    Some (List.rev ps, res)

let cmp_tag = function Eq -> 0 | Neq -> 1 | Lt -> 2 | Le -> 3 | Gt -> 4 | Ge -> 5
let arith_tag = function Add -> 0 | Sub -> 1 | Mul -> 2

(* [&&] is shadowed above as the expression conjunction constructor;
   restore the boolean one locally. *)
let rec equal a b =
  let ( && ) = Stdlib.( && ) in
  match a, b with
  | Col x, Col y -> String.equal x y
  | Const x, Const y -> Value.equal x y
  | Cmp (op1, a1, b1), Cmp (op2, a2, b2) ->
    Int.equal (cmp_tag op1) (cmp_tag op2) && equal a1 a2 && equal b1 b2
  | And (a1, b1), And (a2, b2) | Or (a1, b1), Or (a2, b2) -> equal a1 a2 && equal b1 b2
  | Not x, Not y -> equal x y
  | Arith (op1, a1, b1), Arith (op2, a2, b2) ->
    Int.equal (arith_tag op1) (arith_tag op2) && equal a1 a2 && equal b1 b2
  | Like (x, p), Like (y, q) -> String.equal p q && equal x y
  | Is_null x, Is_null y -> equal x y
  | (Col _ | Const _ | Cmp _ | And _ | Or _ | Not _ | Arith _ | Like _ | Is_null _), _ -> false

let mix h k = (h * 0x01000193) lxor k

let rec hash = function
  | Col c -> mix 1 (String.hash c)
  | Const v -> mix 2 (Value.hash v)
  | Cmp (op, a, b) -> mix (mix (mix 3 (cmp_tag op)) (hash a)) (hash b)
  | And (a, b) -> mix (mix 4 (hash a)) (hash b)
  | Or (a, b) -> mix (mix 5 (hash a)) (hash b)
  | Not a -> mix 6 (hash a)
  | Arith (op, a, b) -> mix (mix (mix 7 (arith_tag op)) (hash a)) (hash b)
  | Like (a, pattern) -> mix (mix 8 (String.hash pattern)) (hash a)
  | Is_null a -> mix 9 (hash a)

let rec pp fmt = function
  | Col c -> Format.pp_print_string fmt c
  | Const v -> Value.pp fmt v
  | Cmp (op, a, b) ->
    let s = match op with Eq -> "=" | Neq -> "<>" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">=" in
    Format.fprintf fmt "(%a %s %a)" pp a s pp b
  | And (a, b) -> Format.fprintf fmt "(%a AND %a)" pp a pp b
  | Or (a, b) -> Format.fprintf fmt "(%a OR %a)" pp a pp b
  | Not a -> Format.fprintf fmt "(NOT %a)" pp a
  | Arith (op, a, b) ->
    let s = match op with Add -> "+" | Sub -> "-" | Mul -> "*" in
    Format.fprintf fmt "(%a %s %a)" pp a s pp b
  | Like (a, pattern) -> Format.fprintf fmt "(%a LIKE '%s')" pp a pattern
  | Is_null a -> Format.fprintf fmt "(%a IS NULL)" pp a
