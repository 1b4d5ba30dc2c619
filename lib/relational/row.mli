(** Rows: fixed-arity arrays of {!Value.t}. Treated as immutable.

    Role in the pipeline: the currency every layer trades in — tuples of
    the one stored world (§3), elements of the Δ−/Δ+ batches, and keys of
    the marginal counters (Eq. 5). Immutability is what lets a row sit
    simultaneously in a table, a delta, and a view's count map without
    copy-on-read. *)

type t = Value.t array

val make : Value.t list -> t
val get : t -> int -> Value.t
val set : t -> int -> Value.t -> t
(** Functional update: returns a fresh row. *)

val append : t -> t -> t
val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int
val to_string : t -> string

module Tbl : Hashtbl.S with type key = t
(** Row-keyed hash tables over {!hash}/{!equal} — the only sanctioned way
    to key a table by rows (lint rule R1): the polymorphic [Hashtbl]
    would split groups that {!Value.equal} unifies ([Int 1] vs
    [Float 1.], NaN payloads). {!Key_index} and the group-by accumulator
    in {!Eval} both build on this. *)
