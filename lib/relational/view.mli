(** Materialized views maintained incrementally from update deltas — the
    engine behind Algorithm 1 (§4.2), the paper's answer to Algorithm 3's
    per-sample re-query cost.

    This implements Equation 6 of the paper,
    [Q(w') = Q(w) ⊖ Q'(w,Δ−) ⊕ Q'(w,Δ+)], in its signed-multiset form
    (Blakeley et al.): the full query runs once at creation, and every
    subsequent {!update} folds the signed result delta into the stored count
    map. Projections therefore follow the paper's remark — counters are
    maintained and answer membership is [count > 0].

    Every node of the view tree materializes its current result bag,
    maintained in place as deltas flow through, so delta propagation never
    re-evaluates a subtree. A scan keeps its own copy of the table's rows
    only when a reader needs them while deltas flow (a nested-loop join
    sibling, a [Distinct] parent, or the view's root), on either storage
    backend; otherwise it holds nothing and is read from the table at
    build time:

    - [Join] nodes keep {!Key_index} hash indexes on their equi-join key
      columns for both children, turning δR⋈S' and R'⋈δS into per-delta-row
      index probes — the O(|Δ|) step cost of Algorithm 1. Non-equi
      predicates and products fall back to nested loops over the sibling's
      {e materialized} state (still no re-evaluation).
    - [Group_by] keeps per-group accumulators; [Count_join] keeps the
      sub-query's per-key counts plus the child indexed by key;
      [Distinct] reads its child's materialized counts.
    - [Diff] and [Order_by]+limit fall back to recomputation, but each node
      records its base-table footprint at build time and a batch touching no
      table in a subtree short-circuits it to an empty delta.

    Maintenance cost per batch is therefore O(|Δ|) per touched node (probe
    counts and per-node materialized sizes are exported as
    [view.join.probe_rows] / [view.join.index_size] /
    [view.node.materialized_rows]; see docs/OBSERVABILITY.md). *)

type t

type cache
(** A subplan table for multi-query optimization: canonical algebra
    subtree ({!Algebra.equal}/{!Algebra.hash}) → the one shared node
    maintaining it, refcounted by direct parents. Views built over the
    same cache share every structurally-equal subtree: the shared node
    is maintained exactly once per delta batch (the first parent
    computes and folds it; the others reuse the memoized result bag —
    counted as [serve.dedup_hits]), and a new registration initializes
    only the nodes it adds. Sharing is only sound among views fed the
    {e same} delta stream — one cache per serving registry, never across
    independently-stepped chains. *)

val cache_create : unit -> cache

val cache_nodes : cache -> int
(** Live entries (distinct cached subplans). *)

val cache_shared : cache -> int
(** Entries currently referenced by more than one parent — the
    [serve.shared_nodes] gauge. *)

val create : ?cache:cache -> Database.t -> Algebra.t -> t
(** Runs the full query once against the current database state. With
    [cache], subtrees already present are adopted live (no
    re-initialization) and new subtrees are added to the cache. *)

val release : cache -> t -> unit
(** Drop the view's references from the cache; entries orphaned by the
    drop are evicted so they can never leak stale state into a later
    {!create}. Required when unregistering a cache-built view; harmless
    for views the cache never saw. *)

val result : t -> Bag.t
(** Current answer with multiplicities. Do not mutate. *)

val update : t -> Delta.t -> unit
(** Folds a batch of base-table changes (already applied to the database)
    into the materialized answer.

    Raises [Failure] if maintenance drives some count negative — that would
    mean the delta disagrees with the database state the view believes in. *)

val algebra : t -> Algebra.t

