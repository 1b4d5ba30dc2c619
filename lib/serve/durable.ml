(* Observability (docs/OBSERVABILITY.md): "wal.compaction.count" is the
   number of log rotations (snapshot rewrites triggered by log growth,
   plus the final one at close); "wal.bytes_per_sample" is the log bytes
   appended per sample over the last compaction interval — the measured
   O(|δ|) durability cost the WAL exists to achieve. *)
let m_compactions = Obs.Metrics.counter "wal.compaction.count"
let m_bytes_per_sample = Obs.Metrics.gauge "wal.bytes_per_sample"

type policy = { fsync_every : int; compact_ratio : float }

type t = {
  snap_path : string;
  wal_path : string;
  policy : policy;
  reg : Registry.t;
  mutable writer : Checkpoint.Wal.writer;
  mutable snapshot_bytes : int;
  mutable rotation_samples : int;  (* registry samples at the last rotation *)
  mutable compactions : int;
  mutable closed : bool;
}

let check_policy p =
  if p.fsync_every < 0 then invalid_arg "Serve.Durable: negative fsync_every";
  if not (p.compact_ratio > 0.) then invalid_arg "Serve.Durable: compact_ratio must be > 0"

let registry t = t.reg
let wal_bytes t = Checkpoint.Wal.bytes t.writer
let snapshot_bytes t = t.snapshot_bytes
let compactions t = t.compactions

(* Journaled operation is step-driven: a pending world delta here means
   the caller walked the chain outside Registry.step, which the log never
   saw — snapshotting would silently absorb un-journaled updates and the
   log would no longer replay to the snapshot's state. *)
let check_drained t ~ctx =
  if not (Relational.Delta.is_empty (Core.World.pending_delta (Core.Pdb.world (Registry.pdb t.reg))))
  then
    invalid_arg
      (Printf.sprintf
         "Serve.Durable.%s: the world has an undrained delta — journaled chains must \
          mutate only through Registry.step"
         ctx)

(* Snapshot first, rotate second. The ordering is the recovery invariant
   (docs/DURABILITY.md): the snapshot on disk is always at or ahead of
   the log's base, so a crash at either failpoint leaves a pair
   Registry.restore_wal can reconcile — before the save it is the old
   snapshot plus the full log; after it, the new snapshot plus a log
   whose tail it already contains (skipped on replay). *)
let rotate t ~ctx =
  check_drained t ~ctx;
  let n = t.compactions + 1 in
  Checkpoint.Failpoint.hit "wal.compact" ~index:n;
  let snap = Registry.snapshot t.reg in
  t.snapshot_bytes <- Checkpoint.State.save ~path:t.snap_path snap;
  Checkpoint.Failpoint.hit "wal.rotate" ~index:n;
  let interval_samples = Registry.samples t.reg - t.rotation_samples in
  let interval_bytes =
    Checkpoint.Wal.bytes t.writer - String.length (Checkpoint.Wal.header ~base_samples:t.rotation_samples)
  in
  if interval_samples > 0 then
    Obs.Metrics.set_gauge m_bytes_per_sample
      (float_of_int interval_bytes /. float_of_int interval_samples);
  (* The buffered, un-synced tail of the old log is superseded by the
     snapshot just written — abandon, never flush, so a crash-simulating
     caller can't resurrect it either. *)
  Checkpoint.Wal.abandon t.writer;
  t.writer <-
    Checkpoint.Wal.create ~path:t.wal_path
      ~base_samples:snap.Checkpoint.State.samples
      ~fsync_every:t.policy.fsync_every;
  t.rotation_samples <- snap.Checkpoint.State.samples;
  t.compactions <- n;
  Obs.Metrics.incr m_compactions

(* The journal sink is the whole durable step: Registry.step hands it the
   sample's record, and once that record is in the log the compaction
   check runs — so every caller that steps the registry compacts, with no
   second call to remember. Register/Unregister/Absorb records only
   append. *)
let attach t =
  Registry.set_journal t.reg (fun record ->
      Checkpoint.Wal.append t.writer record;
      match record with
      | Checkpoint.Wal.Sample _
        when float_of_int (Checkpoint.Wal.bytes t.writer)
             > t.policy.compact_ratio *. float_of_int t.snapshot_bytes ->
          rotate t ~ctx:"step"
      | _ -> ())

let start ~snap_path ~wal_path policy reg =
  check_policy policy;
  let t =
    {
      snap_path;
      wal_path;
      policy;
      reg;
      writer = Checkpoint.Wal.create ~path:wal_path ~base_samples:0 ~fsync_every:policy.fsync_every;
      snapshot_bytes = 0;
      rotation_samples = 0;
      compactions = 0;
      closed = false;
    }
  in
  (* The placeholder writer above only exists so [t] is complete; the
     real snapshot-then-rotate establishes the durable pair. *)
  rotate t ~ctx:"start";
  attach t;
  t

let resume ~snap_path ~wal_path policy ~make_pdb =
  check_policy policy;
  let snap = Checkpoint.State.load ~path:snap_path in
  let base_samples, records, valid_bytes, reopen =
    if Sys.file_exists wal_path then begin
      let r = Checkpoint.Wal.recover ~path:wal_path in
      (r.Checkpoint.Wal.base_samples, r.records, r.valid_bytes, true)
    end
    else (snap.Checkpoint.State.samples, [], 0, false)
  in
  let reg = Registry.restore_wal ~make_pdb snap ~base_samples ~records in
  let writer =
    (* Reopened only to hold the slot until the immediate compaction
       below replaces it; truncating the torn tail here keeps the file
       well-formed even if the compaction crashes first. *)
    if reopen then
      Checkpoint.Wal.open_append ~path:wal_path ~valid_bytes ~fsync_every:policy.fsync_every
    else Checkpoint.Wal.create ~path:wal_path ~base_samples ~fsync_every:policy.fsync_every
  in
  let t =
    {
      snap_path;
      wal_path;
      policy;
      reg;
      writer;
      snapshot_bytes = 0;
      rotation_samples = base_samples;
      compactions = 0;
      closed = false;
    }
  in
  rotate t ~ctx:"resume";
  attach t;
  t

let close t =
  if not t.closed then begin
    rotate t ~ctx:"close";
    Registry.clear_journal t.reg;
    Checkpoint.Wal.close t.writer;
    t.closed <- true
  end
