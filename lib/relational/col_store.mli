(** Int-coded columnar row storage for large token tables.

    A boxed row ([Value.t array]) of the TOKEN relation costs ~25 words
    once cell boxes and duplicated strings are counted; at the paper's
    10M-token scale (Fig 4a) that is the difference between fitting in
    memory and not. This store keeps one unboxed array per column — ints
    raw, text as {!Intern} ids, bools as bytes — so a six-column token
    row costs ~6 words and equality probes compare ints.

    {!Value.t} stays the query-surface type: {!Table} encodes on the way
    in and decodes on the way out, and decoding a text cell returns the
    pool's shared boxed value ({!Intern.value}) so the per-sample read
    path allocates no strings (lint rule R7).

    Restrictions relative to boxed storage, enforced at the boundary:
    rows must match the declared column types exactly, [Null] is
    rejected, an [int] primary key is mandatory (rows are unique — no
    bag semantics), and secondary indexes are limited to int/text/bool
    columns. The row-id ("slot") layout is insertion-ordered with
    swap-with-last deletion, and while primary keys arrive densely as
    [0, 1, 2, ...] the pk→slot map is elided entirely. *)

type t

val create : pk:int -> name:string -> Schema.t -> t
(** [create ~pk ~name schema] makes an empty store ([name] labels error
    messages). Raises [Invalid_argument] if column [pk] is not declared
    [T_int]. *)

val cardinal : t -> int

val insert : t -> Row.t -> unit
(** Encode and append one row. Raises [Invalid_argument] on a type
    mismatch, a [Null] cell, or a duplicate primary key; the store is
    unchanged in that case. *)

val delete : t -> Row.t -> unit
(** Remove the row, matching the full row (not just its key) like bag
    deletion does. Raises [Not_found] if no identical row is present. *)

val find_slot : t -> Value.t -> int option
(** Slot of the row with this primary-key value, if present. Numeric
    keys unify the way {!Value.equal} does ([Float 3.] finds pk 3). *)

val decode_row : t -> int -> Row.t
(** Materialise the row at a slot as boxed values. Text cells are the
    shared interned boxes. *)

val decode_cell : t -> col:int -> int -> Value.t
(** One cell of the row at a slot, without materialising the row. *)

val set_cell : t -> col:int -> int -> Value.t -> unit
(** Overwrite one cell in place (secondary indexes updated). Raises
    [Invalid_argument] on type mismatch, [Null], or [col] being the
    primary-key column. *)

val iter : (Row.t -> unit) -> t -> unit
(** Decode every live row in slot order. *)

val to_bag : t -> Bag.t
(** The whole store as one bag of decoded rows (every count 1). The bag
    is decoded once (O(n)) and cached: every call returns the same
    read-only bag until the store's next mutation, which drops it. *)

val select : t -> (int * Value.t) list -> (Row.t -> bool) -> Bag.t
(** [select t eqs keep] is a fresh bag of the decoded rows satisfying
    [keep] (every count 1), where [keep] implies each [(col, v)] of
    [eqs]: [keep row] ⇒ [Value.equal (Row.get row col) v]. Each
    int/text/bool equality is encoded once and compared against the raw
    column slot by slot, so only rows passing all of them are decoded
    and handed to [keep]. A constant no stored row can hold (un-interned
    text, fractional float) yields the empty bag; equalities with no
    exact encoding (float columns, integral floats of magnitude ≥ 2{^53}
    on int columns) are left to [keep]. *)

val pk_ordered_entries : t -> (Row.t * int) list option
(** Every row with count 1, decoded straight from the slots, when the
    primary key is column 0 and the slots hold the rows in key order —
    then slot order is {!Row.compare} order, and the list equals
    [Bag.to_list (to_bag t)] without building (or caching) the bag.
    [None] otherwise, e.g. after a deletion moved the last row into a
    hole. *)

val create_index : t -> int -> unit
(** Build (or rebuild) a secondary index on a column. Raises
    [Invalid_argument] for float columns. *)

val has_index : t -> int -> bool

val distinct_in_index : t -> int -> int option
(** Number of distinct keys the column holds, when knowable for free:
    the row count for the primary key (set semantics), the bucket count
    for an indexed column, [None] otherwise. Feeds the optimizer's
    join-selectivity estimates. *)

val lookup : t -> col:int -> Value.t -> Bag.t
(** Decoded rows whose column equals the probe value, via the secondary
    index. Raises [Not_found] if the column has no index. A probe value
    no stored row could hold (un-interned text, fractional float)
    returns the empty bag. *)

val column_ints : t -> int -> int array option
(** The raw encoded column as a fresh int array in slot order — ints as
    themselves, text as {!Intern} ids, bools as 0/1; [None] for float
    columns. The bulk-read fast path for model construction over
    millions of rows. *)
