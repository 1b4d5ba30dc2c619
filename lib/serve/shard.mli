(** Scale-out serving over a {e partitioned} database: one chain per
    shard, each owning a disjoint slice of the corpus, answers unioned
    per query.

    Where {!Pool} runs c chains over the {e same} data and averages
    their estimates, a shard pool splits the data itself (DESIGN.md §10;
    the split is computed upstream, e.g. {!Ie.Sharding}) and runs one
    independent chain per slice on its own domain — {!Pool.run}, the
    same per-chain runner, with a union merge in place of averaging.
    Each shard's state space is a fraction of
    the corpus, so a sweep costs proportionally fewer MH steps — that,
    not domain parallelism, is the scaling the 1M–10M-token runs of
    EXPERIMENTS.md E10 measure on a single core.

    The per-query merge is {!Core.Marginals.merge_shards} (disjoint
    union at aligned sample counts), timed by [shard.merge_ns]; the
    effective width is published as the [shard.count] gauge. The union
    is {e factor-exact} when no skip-chain factor crosses shards
    ([Ie.Sharding.cut_strings = 0]): the sharded marginals are then
    bit-identical to merging sequentially-run per-shard registries. Cut
    strings make the factorization approximate — the divergence is
    bounded empirically by the cross-shard test suite. *)

val evaluate :
  ?burn_in:int ->
  shards:int ->
  make:(shard:int -> Core.Pdb.t) ->
  queries:(string * Relational.Algebra.t) list ->
  thin:int ->
  samples:int ->
  unit ->
  (string * Core.Marginals.t) list
(** [make ~shard] must build shard [i]'s PDB over its own slice of the
    data (own database, own RNG). Every shard draws exactly [samples]
    worlds at [thin] steps each, so the per-shard normalizers align as
    {!Core.Marginals.merge_shards} requires. Returns the input queries
    in order. Raises [Invalid_argument] if [shards < 1]. *)
