(** Pooled multi-query serving: c chains, each driving the same set of
    registered queries, merged per query (§5.4 chain averaging applied to
    a whole query registry at once).

    Every chain builds an independent PDB instance, registers the full
    query list in one {!Serve.Registry}, samples, and the per-query
    marginals are pooled across chains with {!Core.Marginals.merge}. A
    single query is the paper's parallel evaluation (Fig. 5). Chains may
    stop at different times in a live deployment, so the merge must (and
    does) pool unequal sample counts — the normalizers add. {!Shard} runs
    the same per-chain runner ({!run}) over a partitioned database with a
    union merge.

    {2 Durability}

    With a {!durability} config the pool becomes a supervisor: each chain
    is a {!Durable} chain under [dir] — a snapshot [dir/chain-<i>.ckpt]
    plus a delta log [dir/chain-<i>.wal] (docs/DURABILITY.md). Every
    sample appends one O(|δ|) record, fsynced in group-commit batches of
    [policy.fsync_every]; the snapshot is rewritten only when the log
    outgrows it by [policy.compact_ratio] and at completion. A chain that
    raises mid-run is retried in place up to [retries] times with
    exponential backoff ([backoff_s], doubling per attempt); each retry
    replays the log tail over the snapshot, so at most
    [fsync_every − 1] samples of work are repeated and the resumed
    trajectory is the crashed chain's own. [resume = true] additionally
    picks up state left by a {e previous} process (warm restart; a
    directory holding only [chain-<i>.ckpt] resumes with an empty log);
    otherwise a pre-existing file is ignored until a crash makes it the
    recovery point. A chain that keeps failing past its retry budget
    surfaces as [Mcmc.Parallel.Job_failed], whose [attempts] count
    distinguishes a poison chain from exhausted transient faults.

    Each sample index passes the ["pool.sample"] failpoint
    ({!Checkpoint.Failpoint}), durable or not, which is how the
    fault-injection tests kill a chain at an exact point in the stream;
    the ["wal.append"], ["wal.torn_append"], ["wal.compact"], and
    ["wal.rotate"] points sit inside the durability path itself.

    Metrics: [checkpoint.retry.count] (restarts granted here) on top of
    the [checkpoint.*] metrics recorded by {!Checkpoint.State} and the
    [wal.*] metrics recorded by {!Checkpoint.Wal}/{!Durable}
    (docs/OBSERVABILITY.md). *)

type durability = {
  dir : string;  (** directory for [chain-<i>.ckpt]/[.wal] files; must exist *)
  resume : bool;  (** adopt state from a previous process at startup *)
  retries : int;  (** crash retries per chain beyond the first attempt *)
  backoff_s : float;  (** initial retry backoff, doubling per attempt *)
  remake : chain:int -> Relational.Database.t -> Core.Pdb.t;
      (** rebuild chain [i]'s PDB {e over} a restored database — the
          constructor behind {!Registry.restore}'s [make_pdb] *)
  policy : Durable.policy;  (** group commit and compaction of each chain's log *)
}

val evaluate :
  ?burn_in:int ->
  ?durability:durability ->
  chains:int ->
  make:(chain:int -> Core.Pdb.t) ->
  queries:(string * Relational.Algebra.t) list ->
  thin:int ->
  samples:int ->
  unit ->
  (string * Core.Marginals.t) list
(** [make ~chain] must build an independent instance (own database copy
    and RNG) per chain index; chains run on separate domains
    ({!Mcmc.Parallel.map}). Returns the input queries in order, each with
    marginals pooled over all [chains] ([chains × (samples + 1)]
    observations per query when uninterrupted). *)

val run :
  ?burn_in:int ->
  ?durability:durability ->
  merge:(Core.Marginals.t list -> Core.Marginals.t) ->
  chains:int ->
  make:(chain:int -> Core.Pdb.t) ->
  queries:(string * Relational.Algebra.t) list ->
  thin:int ->
  samples:int ->
  unit ->
  (string * Core.Marginals.t) list
(** The per-chain runner behind {!evaluate} (which is [run ~merge:
    Core.Marginals.merge]): build, burn in, register, sample, then
    combine each query's per-chain marginals, in chain order, with
    [merge]. Chains are paired by query {e name}: raises
    [Invalid_argument] if a chain registered two queries under one name
    or is missing one. *)
