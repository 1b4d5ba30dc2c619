(** Snapshot + delta-log lifecycle for one serving chain.

    Ties a {!Registry} to its two on-disk artifacts — a full
    {!Checkpoint.State} snapshot and the {!Checkpoint.Wal} log that
    extends it — and owns the three transitions between them:

    - {e start}: snapshot the fresh registry, create the log over it,
      attach the journal; from then on every sample costs one O(|δ|)
      append instead of an O(|D|) snapshot.
    - {e compaction}: checked by the journal sink right after each
      [Sample] record is appended, i.e. inside {!Registry.step} — a
      durable chain needs no call besides [step]. When the log outgrows
      the snapshot by [compact_ratio], rewrite a fresh snapshot, then
      rotate the log
      (atomic replace with a header whose base is the new snapshot's
      sample count). The snapshot is durable {e before} the rotation, so
      a crash anywhere in between leaves a recoverable pair — the
      replay-skip rule in {!Registry.restore_wal} handles the
      snapshot-ahead-of-log window.
    - {e resume} ({!resume}): load the snapshot, {!Checkpoint.Wal.recover}
      the log (truncating any torn tail), replay, and immediately
      compact so the resumed chain starts over a clean snapshot/empty
      log pair.

    Crash points are exercised through failpoints ["wal.compact"] (before
    the compaction snapshot is written) and ["wal.rotate"] (between the
    snapshot write and the log rotation), both indexed by the 1-based
    compaction ordinal and raised out of {!Registry.step} (or out of
    {!resume}/{!close}, which compact too), plus {!Checkpoint.Wal}'s
    append-side points.

    Metrics (docs/OBSERVABILITY.md): [wal.compaction.count] (counter,
    log rotations performed) and [wal.bytes_per_sample] (gauge, log
    bytes appended per sample over the last compaction interval — the
    O(|δ|) claim as a number). *)

type policy = {
  fsync_every : int;
      (** group-commit batch for {!Checkpoint.Wal.append}; [0] = sync
          only at compaction and close *)
  compact_ratio : float;
      (** rotate when [log_bytes > compact_ratio × snapshot_bytes];
          must be positive *)
}

type t

val start : snap_path:string -> wal_path:string -> policy -> Registry.t -> t
(** Make a running registry durable: write its snapshot to [snap_path],
    create the log at [wal_path] based on it, and attach the journal.
    Register queries {e before} calling this — the snapshot carries
    them; later registrations flow through the log. Raises
    [Invalid_argument] on a bad policy or when the registry's world has
    an undrained delta (journaled operation is step-driven). *)

val resume :
  snap_path:string ->
  wal_path:string ->
  policy ->
  make_pdb:(Relational.Database.t -> Core.Pdb.t) ->
  t
(** Reconstruct the chain a previous process (or a crashed attempt) left
    behind: {!Checkpoint.State.load}, {!Checkpoint.Wal.recover} (a
    missing log file is an empty tail — legacy snapshot-only
    directories resume fine), {!Registry.restore_wal}, then an
    immediate compaction. Raises [Sys_error] if the snapshot is
    missing and {!Checkpoint.Codec.Corrupt} if either artifact is
    damaged beyond a torn log tail. *)

val registry : t -> Registry.t

val close : t -> unit
(** Final compaction, close the log writer, detach the journal. The
    directory is left with a complete snapshot and an empty log — a
    later {!resume} replays nothing. *)

val wal_bytes : t -> int
(** Current log size (header + appended frames, flushed or not). *)

val snapshot_bytes : t -> int
(** Size of the last snapshot written. *)

val compactions : t -> int
(** Log rotations performed by this handle (including {!close}'s). *)
