(** Typed scalar values stored in relation cells.

    The engine is dynamically typed at the cell level (like SQLite): every
    cell holds a {!t}, and schemas declare the intended {!ty} of each column.
    Comparisons across numeric types coerce; everything else compares by a
    fixed type order so that sorting is total.

    Role in the pipeline: cells of every row in the stored world (§2) and in
    the Δ batches of Eq. 6. Total ordering matters because bag/view count
    maps and ORDER BY both rely on [compare] being a total order across
    mixed-type columns. *)

type t =
  | Null
  | Int of int
  | Float of float
  | Bool of bool
  | Text of string

type ty = T_int | T_float | T_bool | T_text

val compare : t -> t -> int
(** Total order. [Null] sorts first; [Int] and [Float] compare numerically
    against each other; distinct non-numeric types compare by type rank. *)

val equal : t -> t -> bool

val hash : t -> int
(** Keyed hash compatible with {!equal}: numeric [Int n] and [Float f]
    with [equal (Int n) (Float f)] hash equally, [+0.]/[-0.] and all NaN
    representations collapse to one hash each, and no polymorphic
    [Hashtbl.hash] is involved anywhere. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit

val to_int : t -> int
(** Numeric coercion; raises [Invalid_argument] on non-numeric values. *)

val to_float : t -> float
(** Numeric coercion; raises [Invalid_argument] on non-numeric values. *)

val is_truthy : t -> bool
(** SQL-ish boolean test: [Bool b] is [b]; numbers are non-zero; [Null] is
    false; text is non-empty. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
(** Numeric arithmetic, preserving [Int] when both operands are [Int] and
    promoting to [Float] otherwise. [Null] is absorbing. *)
