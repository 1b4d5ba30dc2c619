(** Multisets of rows with integer multiplicities.

    Counts may be negative, so the same structure represents both relation
    instances (all counts positive) and *signed deltas* used by incremental
    view maintenance. Entries with count 0 are removed eagerly.

    Role in the pipeline (§4.2): the ⊖/⊕ of Eq. 6 are ordinary signed-bag
    additions here, which is why Algorithm 1's [update] is a fold rather
    than a special case — and why Algorithm 3 can reuse the same operators
    with all-positive counts. *)

type t

val create : ?size:int -> unit -> t

val empty : t
(** A shared, permanently empty bag, returned by index probes that find no
    entry so misses allocate nothing. Never mutate it. *)

val is_empty : t -> bool

val count : t -> Row.t -> int
val mem : t -> Row.t -> bool
(** [mem b r] is [count b r > 0]. *)

val add : ?count:int -> t -> Row.t -> unit
(** Adds [count] (default 1, may be negative) to the multiplicity of [r]. *)

val remove : ?count:int -> t -> Row.t -> unit
(** [remove ~count b r = add ~count:(-count) b r]. *)

val distinct_cardinal : t -> int
(** Number of rows with non-zero count. *)

val total : t -> int
(** Sum of all counts (may be negative for deltas). *)

val iter : (Row.t -> int -> unit) -> t -> unit
val fold : (Row.t -> int -> 'a -> 'a) -> t -> 'a -> 'a

val add_bag : ?scale:int -> t -> t -> unit
(** [add_bag ~scale dst src] adds [scale * count] of every [src] entry into
    [dst] (default scale 1; use -1 to subtract). *)

val copy : t -> t

val to_list : t -> (Row.t * int) list
(** Entries sorted by row, for deterministic output. *)

val rows : t -> Row.t list
(** Distinct rows with positive count, sorted. *)

val map_rows : (Row.t -> Row.t) -> t -> t
(** Relabels rows, summing counts of rows that collide (multiset
    projection). *)

val filter : (Row.t -> bool) -> t -> t
