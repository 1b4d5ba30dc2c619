(** Hash indexes from key columns to the rows carrying that key — the one
    key-extraction/index structure shared by {!Eval}'s hash join (build
    side), {!Table}'s secondary indexes, and {!View}'s materialized join
    state, which previously each grew a private copy.

    A key is the sub-row obtained by reading a fixed array of column
    positions, so single-column indexes ({!Table}) and multi-column
    equi-join indexes ({!View}, {!Eval}) are the same structure. Entries
    are signed {!Bag}s: maintaining an index under a stream of deltas is
    [add_bag] with the delta, exactly like maintaining a relation. Keys
    whose bag drains to empty are removed eagerly, so {!distinct_keys}
    counts live keys only. *)

type t

val create : ?size:int -> int array -> t
(** [create pos] is an empty index keying rows by the columns at
    positions [pos] (in order). *)

val of_bag : ?size:int -> int array -> Bag.t -> t
(** [of_bag pos b] indexes every row of [b] with its multiplicity. *)

val extract : int array -> Row.t -> Row.t
(** [extract pos row] is the key of [row] under positions [pos] — usable
    with a {e different} position array than the index's own, which is how
    a probe row from the other side of a join is keyed. *)

val add : ?count:int -> t -> Row.t -> unit
(** Add [count] (default 1, may be negative) of [row] under its key. *)

val add_bag : ?scale:int -> t -> Bag.t -> unit
(** Fold a whole (possibly signed) bag into the index. *)

val probe : t -> Row.t -> Bag.t
(** All rows currently indexed under the given key, with multiplicities.
    Returns {!Bag.empty} on a miss — treat the result as read-only. *)

val probe_value : t -> Value.t -> Bag.t
(** [probe_value t v] is [probe t [| v |]] — the single-column case. *)

val distinct_keys : t -> int
(** Number of keys with at least one (non-zero-count) row. *)

val clear : t -> unit
