(** The single possible world stored in the underlying database (§3).

    All field writes go through this module so that every modification is
    recorded in the pending delta — the auxiliary Δ−/Δ+ tables that the
    view-maintenance evaluator consumes between query executions. Opposite
    changes within one batch coalesce away automatically. *)

type t

val create : Relational.Database.t -> t
val db : t -> Relational.Database.t

val get_field : t -> Field.t -> Relational.Value.t
(** Raises [Invalid_argument] for an unknown field. *)

val set_field : t -> Field.t -> Relational.Value.t -> unit
(** Write-through point update; records the old/new rows in the pending
    delta. A no-op when the value is unchanged. *)

val pending_delta : t -> Relational.Delta.t
(** The live delta accumulated since the last {!drain_delta} — read-only. *)

val drain_delta : t -> Relational.Delta.t
(** Returns the accumulated delta and resets the pending one — called once
    per query evaluation (between samples). *)
