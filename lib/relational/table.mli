(** Named base relations with optional primary key and hash indexes.

    A table stores a multiset of rows. When a primary key is declared the
    table additionally maintains a key → row map and updates become
    constant-time row replacements — the access pattern MCMC needs when a
    field variable changes value.

    Role in the pipeline (§3): tables hold the single materialized world the
    sampler walks over. An accepted proposal becomes a handful of keyed
    [update] calls, each of which can be captured in a {!Delta.t} for
    Algorithm 1 (Eq. 6) while Algorithm 3 simply rescans the table.

    Two storage backends sit behind this one API. The default {e boxed}
    backend stores rows as [Value.t array] multisets. The {e columnar}
    backend ({!create_columnar}, backed by {!Col_store}) keeps one
    unboxed array per column with text cells as {!Intern} ids — the
    compact representation ROADMAP item 1 needs for the paper's
    1M–10M-token corpora (Fig 4a). Columnar tables are stricter: an
    [int] primary key is mandatory (set semantics), cells must match
    their declared types and may not be [Null]. Which backend a table
    uses is this module's business: {!rows}, {!select} and the rest mean
    the same on both. *)

type t

val create : ?pk:string -> name:string -> Schema.t -> t
(** [create ~pk ~name schema]: [pk], when given, must name a schema column;
    inserting two rows with the same key then raises. *)

val create_columnar : pk:string -> name:string -> Schema.t -> t
(** A table on the compact columnar backend. [pk] must name a [T_int]
    column. Raises [Invalid_argument] otherwise. *)

val storage : t -> [ `Boxed | `Columnar ]
(** Which backend this table runs on. A checkpoint snapshot records it,
    so restore rebuilds the same backend; views and model construction do
    not read it. *)

val name : t -> string
val schema : t -> Schema.t
val pk_column : t -> string option
(** The declared primary-key column, if any. *)

val cardinal : t -> int
(** Total number of rows counting multiplicity. *)

val insert : t -> Row.t -> unit
val delete : t -> Row.t -> unit
(** Removes one occurrence. Raises [Not_found] if the row is absent. *)

val find_by_pk : t -> Value.t -> Row.t option

val cell_by_pk : t -> Value.t -> pos:int -> Value.t option
(** [cell_by_pk t k ~pos] is column [pos] of the row keyed [k] — on
    columnar storage this reads the one cell without decoding the row,
    which is what the sampler's field reads want. *)

val update_field_by_pk : t -> Value.t -> column:string -> Value.t -> Row.t * Row.t
(** Point update of one field; returns [(old_row, new_row)]. *)

val rows : t -> Bag.t
(** One read-only bag of the table's rows, shared by every caller until
    the table's next mutation: the live multiset on the boxed backend, a
    cached decode ({!Col_store.to_bag}) on the columnar one. Callers must
    not mutate it; a reader that keeps rows across mutations copies it. *)

val select : t -> (int * Value.t) list -> (Row.t -> bool) -> Bag.t
(** [select t eqs keep] is a fresh bag of the rows satisfying [keep],
    given equalities [(pos, v)] that [keep] implies (as
    {!Expr.eq_constants} extracts them). Boxed: [Bag.filter keep (rows
    t)]. Columnar: {!Col_store.select}, which compares [eqs] on the
    encoded columns and decodes only the rows that pass, instead of
    decoding the whole table first. *)

val sorted_entries : t -> (Row.t * int) list
(** [Bag.to_list (rows t)]: every distinct row with its count, sorted by
    {!Row.compare}. A columnar table whose slots are already in that
    order ({!Col_store.pk_ordered_entries}) emits its rows straight from
    the slots, so a snapshot of a 100k-token TOKEN table neither decodes
    it into a hash bag nor keeps that bag cached on the store. *)

val column_ints : t -> string -> int array option
(** Columnar backend only: the named column's raw encoding as a fresh
    int array in storage order — ints as themselves, text as {!Intern}
    ids, bools as 0/1. [None] on the boxed backend and for float
    columns. The bulk-read fast path model construction uses to avoid
    decoding millions of rows. *)

val create_index : t -> string -> unit
(** Builds (or rebuilds) a hash index on the named column. *)

val has_index : t -> string -> bool

val distinct_keys : t -> string -> int option
(** [distinct_keys t column] is the number of distinct values in
    [column] when the table already knows it for free — via the primary
    key or a hash index — and [None] otherwise (including unknown
    columns). The optimizer's cost-based join-order pass divides
    {!cardinal} by this to estimate equi-join selectivity without ever
    scanning. *)

val lookup : t -> column:string -> Value.t -> Bag.t
(** Index lookup; raises [Invalid_argument] if no index exists on [column].
    The returned bag must not be mutated. *)
