(** The chain snapshot: everything a sampling process needs to resume as
    if it had never stopped.

    A snapshot is a pure value capturing the four moving parts of a
    serving chain (§3, §5 of the paper's architecture):

    - the single materialized world — every base table with schema,
      primary key, storage backend, declared indexes, and rows;
    - the Metropolis–Hastings accounting (steps, proposed, accepted) so a
      resumed chain reports the same acceptance rate;
    - the generator state of the chain's {!Mcmc.Rng.t}, so the resumed
      walk draws the {e same} trajectory the uninterrupted one would;
    - per-query plans and marginal counters (Eq. 5 raw counts plus
      normalizer).

    No view state is stored: a materialized view equals its query over
    the current world (Algorithm 1, Eq. 6), so restore rebuilds each
    view by one evaluation of its plan over the restored tables, the
    way a registration builds it.

    Encoding is canonical: tables sorted by name, bag entries sorted by
    row, so snapshot → restore → snapshot is byte-identical. Files carry
    the {!Codec} envelope (magic, {!version}, CRC-32) and are written
    atomically.

    Metrics (docs/OBSERVABILITY.md): [checkpoint.write_ns] (histogram,
    one sample per {!save}), [checkpoint.bytes] (gauge, size of the last
    file written), [checkpoint.restore.count] (counter, successful
    {!load}s). *)

open Relational

val version : int
(** Format version stamped into the frame; {!load} refuses others.
    Version 2 added [t_columnar] to the table image; version 3 dropped
    the per-query view node bags. *)

type table_state = {
  t_name : string;
  t_pk : string option;
  t_columnar : bool;
      (** the {!Relational.Table.storage} backend; restore rebuilds the
          same one, and a columnar image needs a primary key *)
  t_schema : (string * Value.ty) list;
  t_indexed : string list;  (** columns with hash indexes, sorted *)
  t_rows : (Row.t * int) list;  (** sorted by row, multiplicities > 0 *)
}

type query_state = {
  q_id : int;
  q_name : string;
  q_algebra : Algebra.t;
  q_counts : (Row.t * int) list;  (** marginal hit counts, sorted by row *)
  q_z : int;  (** marginal normalizer (samples observed) *)
}

type t = {
  samples : int;  (** registry sample counter *)
  steps : int;  (** MH steps taken *)
  proposed : int;
  accepted : int;
  next_id : int;  (** registry id allocator *)
  rng : string;  (** [Mcmc.Rng.export] blob *)
  tables : table_state list;  (** sorted by table name *)
  queries : query_state list;  (** registration order *)
}

val capture_tables : Database.t -> table_state list
(** Canonical image of every table in the database, sorted by name. *)

val restore_db : table_state list -> Database.t
(** A fresh database holding exactly the captured tables: schemas,
    primary keys, storage backends, rows (with multiplicity), and rebuilt
    indexes. Raises {!Codec.Corrupt} on a columnar image without a
    primary key or on a negative row count. *)

val encode : t -> string
(** Framed, CRC-checked bytes — what {!save} writes. Deterministic. *)

val decode : string -> t
(** Inverse of {!encode}. Raises {!Codec.Corrupt} on a damaged or
    mis-versioned frame, or an undecodable payload. *)

val save : path:string -> t -> int
(** Encode and atomically write; returns bytes written. Records
    [checkpoint.write_ns] and [checkpoint.bytes]. *)

val load : path:string -> t
(** Read and decode; increments [checkpoint.restore.count]. Raises
    [Sys_error] if unreadable, {!Codec.Corrupt} if damaged. *)
