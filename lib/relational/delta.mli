(** Signed per-table update batches (the Δ−/Δ+ of the paper, coalesced).

    A delta maps each base table to a signed row multiset: a row updated from
    [a] to [b] contributes [a ↦ −1, b ↦ +1]; opposite changes within one
    batch cancel automatically.

    Role in the pipeline (§4.2): this is the Δ of Eq. 6 — the record of what
    one accepted MCMC proposal changed in the stored world. Its smallness
    relative to the full tables (|Δ| ≪ |D|, the paper's central scalability
    claim, Fig 4a) is what makes Algorithm 1 beat Algorithm 3; the
    [eval.delta_rows] vs [eval.table_rows] metrics measure exactly this. *)

type t

val create : unit -> t
val is_empty : t -> bool

val record_insert : t -> table:string -> Row.t -> unit
val record_delete : t -> table:string -> Row.t -> unit
val record_update : t -> table:string -> old_row:Row.t -> new_row:Row.t -> unit

val for_table : t -> string -> Bag.t option
(** Net signed delta for a table, or [None] when untouched (an all-zero bag
    may still be returned as an empty bag). *)

val tables : t -> string list

val total_magnitude : t -> int
(** Sum of absolute net counts across all tables — the |Δ| in cost terms. *)
