type t =
  | Null
  | Int of int
  | Float of float
  | Bool of bool
  | Text of string

type ty = T_int | T_float | T_bool | T_text

let rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ | Float _ -> 2
  | Text _ -> 3

let compare a b =
  match a, b with
  | Null, Null -> 0
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> Float.compare (float_of_int x) y
  | Float x, Int y -> Float.compare x (float_of_int y)
  | Bool x, Bool y -> Bool.compare x y
  | Text x, Text y -> String.compare x y
  | (Null | Int _ | Float _ | Bool _ | Text _), _ -> Int.compare (rank a) (rank b)

let equal a b = compare a b = 0

(* [hash] must agree with [compare]'s numeric equivalences:
   - [Int n] and [Float f] with [compare (Int n) (Float f) = 0] collide
     (both hash the float),
   - [+0.] and [-0.] collide (compare calls them equal),
   - every NaN representation collides (compare treats all NaNs as equal). *)
let hash_bits f =
  let b = Int64.bits_of_float f in
  Int64.to_int (Int64.logxor b (Int64.shift_right_logical b 32)) land max_int

(* Integers with |n| <= 2^53 round-trip through float exactly, so the int
   and float hash paths can share an allocation-free integer mix there;
   beyond it both sides hash the float's bits (the zone where compare
   itself goes through float rounding). This keeps the common Int case on
   the sampling hot path free of boxed Int64 arithmetic. *)
let exact_int_bound = 0x20_0000_0000_0000
let exact_float_bound = 9.007199254740992e15 (* 2^53 *)
let hash_int n = (n * 0x3fff_ffdd) land max_int

let hash_num_float f =
  if Float.is_nan f then 0x7ff8_0000
  else if Float.is_integer f && Float.abs f <= exact_float_bound then
    hash_int (int_of_float f) (* folds -0. into +0. via int_of_float *)
  else hash_bits f

let mix tag k = (tag * 1000003) lxor k

let hash = function
  | Null -> 17
  | Bool b -> if b then 31 else 37
  | Int n ->
    mix 2
      (if n >= -exact_int_bound && n <= exact_int_bound then hash_int n
       else hash_bits (float_of_int n))
  | Float f -> mix 2 (hash_num_float f)
  | Text s -> mix 3 (String.hash s)

let to_string = function
  | Null -> "NULL"
  | Int n -> string_of_int n
  | Float f -> Printf.sprintf "%g" f
  | Bool b -> string_of_bool b
  | Text s -> s

let pp fmt v = Format.pp_print_string fmt (to_string v)

let to_int = function
  | Int n -> n
  | Float f -> int_of_float f
  | Bool b -> if b then 1 else 0
  | v -> invalid_arg ("Value.to_int: " ^ to_string v)

let to_float = function
  | Int n -> float_of_int n
  | Float f -> f
  | v -> invalid_arg ("Value.to_float: " ^ to_string v)

let is_truthy = function
  | Null -> false
  | Bool b -> b
  | Int n -> n <> 0
  | Float f -> not (Float.equal f 0.)
  | Text s -> not (String.equal s "")

let arith int_op float_op a b =
  match a, b with
  | Null, _ | _, Null -> Null
  | Int x, Int y -> Int (int_op x y)
  | (Int _ | Float _), (Int _ | Float _) -> Float (float_op (to_float a) (to_float b))
  | _ -> invalid_arg "Value: arithmetic on non-numeric value"

let add = arith ( + ) ( +. )
let sub = arith ( - ) ( -. )
let mul = arith ( * ) ( *. )
