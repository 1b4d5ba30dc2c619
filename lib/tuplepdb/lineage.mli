(** Boolean lineage (provenance) formulas over independent tuple events —
    the representation classic probabilistic databases attach to query
    answers (c-tables / MystiQ lineage; paper §2's "early theoretical
    work"). Variables are integer event ids, each true independently with
    some probability. *)

type t =
  | Tru
  | Fls
  | Var of int
  | And of t list
  | Or of t list
  | Not of t

val var : int -> t
val conj : t list -> t
(** Flattens nested conjunctions and drops units; [conj []] is {!Tru}. *)

val disj : t list -> t
val neg : t -> t

val vars : t -> int list
(** Distinct variables, ascending. *)

val eval : (int -> bool) -> t -> bool

val exact_probability : ?budget:int -> (int -> float) -> t -> float
(** Exact by Shannon expansion with memoization on sub-formulas. [budget]
    bounds the number of expansion nodes (default 2_000_000); raises
    [Failure] beyond it — probability of a monotone formula is #P-hard in
    general, which is the point the paper's sampling approach sidesteps. *)

val monte_carlo : (int -> float) -> rng:Prng.t -> samples:int -> t -> float
(** Naive Monte Carlo estimate (the baseline flavour of MystiQ [5]). *)

val pp : Format.formatter -> t -> unit
