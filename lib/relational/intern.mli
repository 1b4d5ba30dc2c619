(** Global string-interning pool: dense int ids for strings.

    The compact columnar storage of {!Col_store} encodes text columns as
    int ids into this pool, so equality probes on token/label columns
    compare ints instead of chasing boxed {!Value.t} pointers, and a
    string that appears in millions of rows (a label tag, a common word)
    is stored once. This is the "string interning in one global pool"
    half of ROADMAP item 1; the paper's 10M-token NYT corpus (Fig 4a)
    does not fit in memory as boxed rows.

    Ids are dense, starting at 0, assigned in first-intern order, and
    stable for the lifetime of the process: [intern s] always returns
    the same id for equal [s], and [resolve (intern s) = s].

    {2 Concurrency}

    [intern] and [find_opt] serialise on a mutex; [resolve], [value] and
    [count] are lock-free reads of an atomically published snapshot, so
    per-sample hot paths (decode in {!Col_store}, label lookup in
    sharded chains running on multiple domains) never contend. An id
    obtained from any domain is valid on every domain. *)

val intern : string -> int
(** [intern s] returns the id of [s], allocating a fresh one (the
    number of strings interned so far) on first sight. Idempotent: re-interning returns
    the same id. *)

val find_opt : string -> int option
(** The id of [s] if it has been interned, without allocating one. *)

val resolve : int -> string
(** The string with id [id]. Raises [Invalid_argument] if [id] was
    never allocated. The returned string is the pool's canonical copy —
    callers must not mutate it. *)

val value : int -> Value.t
(** [value id] is [Value.Text (resolve id)], but returns one shared
    boxed value per id, allocated when the string was interned — the
    per-sample decode path allocates nothing (lint rule R7). Raises
    [Invalid_argument] if [id] was never allocated. *)
