(** The write-ahead delta log: O(|δ|) durability between full snapshots.

    Algorithm 1 maintains query answers from the walk's deltas because
    [|Δ| ≪ |D|]; this module applies the same idea to durability. Instead
    of rewriting the whole {!State} snapshot every few samples (whose
    cost grows with [|D|] — ~1039 samples' worth at 100k tokens,
    BENCH_checkpoint.json), a chain appends one {!record} per sampled
    world: the accepted delta, the MH accounting, and the generator blob
    needed to resume the exact trajectory. Restore loads the last full
    snapshot and replays the log tail; compaction rewrites a fresh
    snapshot and rotates the log once it outgrows the snapshot by a
    configured factor ({!Serve.Durable} drives both).

    docs/DURABILITY.md is the normative byte-level specification of the
    file format (header and frame layout tables, CRC scope, recovery
    state machine); the test suite checks the tables there against
    {!magic}, {!version}, {!kind_tags}, and the encoders — the doc and
    the code cannot drift apart silently.

    {2 Torn-write discipline}

    Appends are buffered and flushed with [fsync] every [fsync_every]
    records (group commit), so a crash can leave a {e torn tail}: a
    final frame that is truncated or fails its CRC. {!recover} reads the
    longest valid prefix and reports where it ends; reopening the log
    for append truncates the torn bytes first. A CRC-{e valid} frame
    whose payload fails to decode is not a torn write (the CRC trails
    the frame, so partial writes cannot pass it) and raises
    {!Codec.Corrupt} instead of being silently dropped.

    Metrics (docs/OBSERVABILITY.md): [wal.append_ns] (histogram, one
    sample per {!append}), [wal.append_bytes] (counter, framed bytes
    buffered for the log), [wal.fsync_ns] (histogram, one sample per
    group-commit flush). *)

open Relational

type delta = (string * (Row.t * int) list) list
(** One world update batch as pure data: per-table signed bag entries,
    tables sorted by name, entries sorted by row (the canonical
    {!Relational.Bag.to_list} order), counts never zero. *)

(** One logged event. [Sample] counters are absolute (not increments),
    and [rng] is the post-walk {!Mcmc.Rng.export} blob, so replay can
    stop at {e any} record and resume the exact trajectory. *)
type record =
  | Sample of {
      steps : int;  (** MH steps taken, cumulative *)
      proposed : int;
      accepted : int;
      rng : string;  (** generator state after this sample's walk *)
      delta : delta;  (** the walk's net world update *)
    }
  | Register of { id : int; name : string; algebra : Algebra.t }
  | Unregister of { id : int }
  | Absorb of { delta : delta }
      (** A delta folded into the views without a marginal observation
          (the {!Serve.Registry} pre-registration drain). *)

(** {1 Format constants} (checked against docs/DURABILITY.md by tests) *)

val magic : string
(** First bytes of every log file: ["PDBWAL"]. *)

val version : int
(** Format version stamped into the header; {!recover} refuses others. *)

val kind_tag : record -> int
(** The record's kind byte — the first byte of its payload. *)

(* pdb_lint: allow R11 — test hook: the test suite checks it against docs/DURABILITY.md's kind table *)
val kind_tags : (int * string) list
(** Every kind byte with its spec name, ascending:
    [(1, "sample"); (2, "register"); (3, "unregister"); (4, "absorb")]. *)

(** {1 Record codec} *)

val encode_record : record -> string
(** The record's payload bytes (kind byte then body), deterministic. *)

val decode_record : string -> record
(** Inverse of {!encode_record}; raises {!Codec.Corrupt} on a bad kind
    byte, truncation, or trailing bytes. *)

val encode_frame : record -> string
(** The full on-disk frame: [uvarint payload-length ∥ payload ∥ CRC-32
    LE], CRC over the length bytes and payload. *)

val header : base_samples:int -> string
(** The file header: [magic ∥ version ∥ uvarint base-samples ∥ CRC-32
    LE], CRC over the preceding bytes. [base_samples] is the sample
    count of the snapshot this log extends. *)

(** {1 Writer} *)

type writer

val create : path:string -> base_samples:int -> fsync_every:int -> writer
(** Create (or atomically replace — log rotation) the file at [path]
    with a fresh header, then open it for append. The header reaches
    disk before the rename, and the directory is fsynced after it, so a
    crash leaves either the old complete log or the new empty one.
    [fsync_every] is the group-commit batch: flush + [fsync] after every
    that-many appended records; [0] defers durability to {!close}. Raises [Invalid_argument] if [fsync_every < 0] or
    [base_samples < 0]. *)

val open_append : path:string -> valid_bytes:int -> fsync_every:int -> writer
(** Reopen an existing log for append after {!recover}, first truncating
    the file to [valid_bytes] (discarding any torn tail). *)

val append : writer -> record -> unit
(** Buffer one framed record and flush-with-[fsync] if the group-commit
    batch is full. Passes failpoint ["wal.append"] (indexed by the
    1-based append ordinal) before touching the buffer, and
    ["wal.torn_append"], which flushes {e half} of the frame to disk
    before raising — the fault-injection hook for torn-tail tests. *)

val bytes : writer -> int
(** Current log length in bytes (header plus every appended frame,
    including not-yet-flushed ones) — what compaction compares against
    the snapshot size. *)

val close : writer -> unit
(** Write any buffered frames and [fsync], then close the descriptor. *)

val abandon : writer -> unit
(** Close the descriptor {e without} flushing buffered frames — the
    rotation path (the buffered tail is superseded by the snapshot just
    written) and the crash-simulation path in tests. *)

(** {1 Recovery} *)

type recovery = {
  base_samples : int;  (** from the header: the snapshot this log extends *)
  records : record list;  (** the longest valid record prefix, in order *)
  valid_bytes : int;  (** file offset where that prefix ends *)
  torn : bool;  (** whether bytes past [valid_bytes] were discarded *)
}

val recover : path:string -> recovery
(** Read the log, stopping cleanly at the first incomplete or
    CRC-failing frame (a torn group-commit tail). Raises
    {!Codec.Corrupt} on a damaged header (headers are written
    atomically, so damage there is never a torn write) or on a
    CRC-valid frame with an undecodable payload, and [Sys_error] if the
    file cannot be read. *)
