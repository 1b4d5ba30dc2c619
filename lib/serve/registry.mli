(** Shared-chain multi-query serving: N materialized views maintained off
    one MCMC delta stream.

    Algorithm 1 (§4.2) maintains {e one} query over the Metropolis–Hastings
    delta stream; a registry drives many off one {!Core.Pdb} chain, the way
    MarkoViews amortizes view definitions over a shared distribution (Jha &
    Suciu, VLDB 2012). Each sampled world costs one walk of [thin] MH steps
    plus one step of {!Core.View_set} — the one place that builds,
    maintains and folds views, for the live step, absorbs and WAL replay
    alike. The registry keeps what a view set does not know: ids, names,
    the sample count, compilation, the journal, snapshot and restore.

    Every registration is normalized ({!Relational.Optimizer.optimize},
    then the stats-driven {!Relational.Optimizer.reorder}) before it joins
    the set, so structurally-equal subplans across queries resolve to one
    shared node (DESIGN.md §11). The compiled plan is what the WAL
    [Register] record and the snapshot carry, so replay and restore are
    deterministic. A query registered mid-run bootstraps with one full
    evaluation ([serve.bootstrap_evals]) after the pending world delta is
    absorbed into the registered views, and its marginals count only the
    worlds sampled while it was registered.

    Estimates are sample-path identical to {!Core.Evaluator} per query on
    an identically seeded chain (the test suite pins this down). Metrics:
    [serve.queries], [serve.fanout_ns], [serve.bootstrap_evals],
    [serve.samples], [serve.shared_nodes], [serve.dedup_hits]
    (docs/OBSERVABILITY.md). *)

type t

type query_id = int
(** Stable handle for one registered query (never reused within a
    registry), carried as-is on the daemon's wire. An id that names no
    registered query raises [Invalid_argument] at the accessor that
    receives it. *)

val create : Core.Pdb.t -> t
(** A registry serving [pdb]'s chain, with no queries yet. Any update
    delta still pending on the world is discarded — it is already
    reflected in the database state future views will be built from. *)

val pdb : t -> Core.Pdb.t

val register : ?name:string -> t -> Relational.Algebra.t -> query_id
(** Attach a compiled query. Runs it once in full against the current
    world (the bootstrap evaluation, which also becomes the query's first
    observed sample) and maintains it incrementally from then on. [name]
    defaults to ["q<id>"]. Allowed mid-run. *)

val register_sql : ?name:string -> t -> string -> query_id
(** {!register} of {!Relational.Sql.parse}; [name] defaults to the SQL
    text. Raises {!Relational.Sql.Parse_error} on bad input. *)

val unregister : t -> query_id -> Core.Marginals.t
(** Detach a query, returning its final marginals. Later deltas no longer
    touch it. Raises [Invalid_argument] on an unknown or already
    unregistered id. *)

val query_count : t -> int
val queries : t -> (query_id * string) list
(** Registered queries in registration order. *)

val query_name : t -> query_id -> string option
(** The registered name of one query, [None] if the id names no
    registered query. O(1), unlike a scan of {!queries}. *)

val marginals : t -> query_id -> Core.Marginals.t
(** Live estimates for one query (updated in place by {!step}). Raises
    [Invalid_argument] on an unknown id. *)

val samples : t -> int
(** Worlds sampled (i.e. {!step} calls) since the registry was created. *)

val shared_nodes : t -> int
(** Cached subplans currently referenced by more than one parent — the
    [serve.shared_nodes] gauge, read directly. *)

val cached_nodes : t -> int
(** All live cached subplans (shared or not). *)

val step : t -> thin:int -> unit
(** Walk the chain [thin] MH steps, drain the world's delta, and run
    {!Core.View_set.maintain} then {!Core.View_set.fold} on it. *)

val run : ?on_sample:(int -> unit) -> t -> thin:int -> samples:int -> unit
(** [samples] consecutive {!step}s; [on_sample] (called with 1-based
    index after each step) may register/unregister queries. *)

(** {1 Durability}

    A registry checkpoints into a {!Checkpoint.State.t}: the world, the
    chain and each query's plan and marginal counts, but no view state.
    Restore rebuilds every view the way {!register} builds one, by one
    evaluation of its plan over the restored tables (each counted in
    [serve.bootstrap_evals]), restores marginals from their raw counts,
    and imports the chain's generator state so the resumed walk is
    sample-path identical to an uninterrupted one.

    Views over integer-valued aggregates and plain rows resume
    bit-identical. A float aggregate ([SUM]/[AVG] over a [Float]
    column) resumes at the fresh evaluation of the restored tables, not
    at the uninterrupted run's maintained value: adding and subtracting
    deltas rounds differently from summing the current rows, so the two
    may differ in the last bits. *)

val snapshot : t -> Checkpoint.State.t
(** Capture the full serving state: the database image, MH accounting,
    generator state, and every query's plan and marginal counts. Any
    pending world delta is absorbed into the views first (journaled as an
    [Absorb] when a journal is attached), so the log's next [Sample]
    starts from the world the captured tables hold. Call between
    {!step}s (not from inside [on_sample] mid-walk). *)

val restore : make_pdb:(Relational.Database.t -> Core.Pdb.t) -> Checkpoint.State.t -> t
(** Rebuild a registry from a snapshot. [make_pdb db] must construct the
    chain (world, model, proposal, rng) {e over} the restored database
    [db] it is given; its generator is then overwritten with the
    snapshot's. Evaluates each recorded plan once. Raises
    [Invalid_argument] if [make_pdb] ignores its database argument, and
    [Checkpoint.Codec.Corrupt] if the snapshot is internally
    inconsistent. This is {!restore_wal} with an empty log tail. *)

(** {1 Delta-log durability} (see {!Checkpoint.Wal}, {!Durable},
    docs/DURABILITY.md)

    With a journal attached, the registry narrates itself as a stream of
    {!Checkpoint.Wal.record}s: every {!step} emits a [Sample] (the
    drained delta plus the post-walk counters and generator blob), and
    every mid-run {!register}/{!unregister} emits its event, preceded by
    an [Absorb] when a pending world delta had to be drained first.
    Replaying that stream over the snapshot it extends reproduces the
    registry bit-for-bit. The one restriction journaling adds: all world
    mutations must flow through {!step} — an out-of-band walk whose
    delta is never drained by the registry would be invisible to the
    log. *)

val set_journal : t -> (Checkpoint.Wal.record -> unit) -> unit
(** Attach the record sink (usually {!Checkpoint.Wal.append} on a live
    writer). Records describe only what happens {e after} attachment —
    the caller snapshots first, then attaches ({!Durable} does both). *)

val clear_journal : t -> unit

val restore_wal :
  make_pdb:(Relational.Database.t -> Core.Pdb.t) ->
  Checkpoint.State.t ->
  base_samples:int ->
  records:Checkpoint.Wal.record list ->
  t
(** {!restore}, then replay a recovered log tail through the same view
    set step as {!step}: each live [Sample] applies its delta to the
    restored tables, maintains and folds, and advances the chain's resume
    point to its counters and generator blob; [Register]/[Unregister]/
    [Absorb] replay the registered-set changes (a replayed registration
    repeats its bootstrap evaluation). Records at or below the snapshot's
    sample count (a crash between compaction's snapshot write and its log
    rotation) are skipped. Increments [wal.replay_records] per applied
    record. Raises {!Checkpoint.Codec.Corrupt} when [base_samples] is
    ahead of the snapshot. *)
