(** Scalar expressions evaluated against a row of a known schema.

    Role in the pipeline (§4): predicates of [Select]/[Join] nodes in both
    evaluators. [bind_pred] compiles an expression once per plan (schema
    resolution ahead of the loop), which matters because Algorithm 1
    re-applies the same predicate to every delta batch of every sampled
    world; [equi_join_pairs] is what lets {!Eval} hash-join instead of
    nested-looping. *)

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
      (** SQL LIKE: [%] matches any run, [_] any single character. *)
  | Is_null of t

val col : string -> t
val int : int -> t
val text : string -> t
val ( = ) : t -> t -> t
val ( <> ) : t -> t -> t
val ( < ) : t -> t -> t
val ( <= ) : t -> t -> t
val ( > ) : t -> t -> t
val ( >= ) : t -> t -> t
val ( && ) : t -> t -> t
val ( || ) : t -> t -> t
val not_ : t -> t
val conj : t list -> t
(** Conjunction of a predicate list; [conj []] is true. *)

val in_list : t -> Value.t list -> t
(** [in_list e vs] is the disjunction of equalities (SQL IN). *)

val between : t -> Value.t -> Value.t -> t
(** SQL BETWEEN (inclusive). *)

val like_match : pattern:string -> string -> bool
(** The LIKE matcher, exposed for tests. *)

val columns : t -> string list
(** Column names referenced, without duplicates. *)

val bind : Schema.t -> t -> Row.t -> Value.t
(** [bind schema e] compiles [e] into a closure over rows of [schema]: column
    positions are resolved once. Raises [Not_found] at bind time for unknown
    columns. *)

val bind_pred : Schema.t -> t -> Row.t -> bool
(** Like {!bind} but coerced to a boolean with {!Value.is_truthy}. *)

val eval : Schema.t -> t -> Row.t -> Value.t

val eq_constants : Schema.t -> t -> (int * Value.t) list
(** The [col = const] conjuncts of a predicate (either operand order)
    whose column resolves in the schema, as [(position, constant)]. Every
    row the predicate accepts holds each constant at its position under
    {!Value.equal}, which is what lets {!Table.select} pre-filter on
    them. *)

val equi_join_pairs : t -> left:Schema.t -> right:Schema.t -> ((int * int) list * t option) option
(** Splits a conjunctive join predicate into equality pairs
    [(left_pos, right_pos)] usable for hash join, plus a residual predicate
    over the concatenated schema. [None] when no equality pair exists. *)

val equal : t -> t -> bool
(** Structural equality, monomorphic throughout (constants compare via
    {!Value.equal}). This is the identity the multi-query optimizer's
    subplan cache keys on: two predicates that are [equal] compile to
    the same maintained view node. *)

val hash : t -> int
(** Consistent with {!equal}: [equal a b] implies [hash a = hash b]
    (constants hash via {!Value.hash}, which collides exactly where
    {!Value.compare} unifies). *)

val pp : Format.formatter -> t -> unit
