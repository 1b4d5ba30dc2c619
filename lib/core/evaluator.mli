(** Query evaluation over the probabilistic database.

    Two strategies, identical estimates (they observe the same chain):

    - {!strategy.Naive} — Algorithm 3: re-run the full query over every
      sampled world.
    - {!strategy.Materialized} — Algorithm 1: run the full query once on the
      initial world, then maintain the answer incrementally from the MCMC
      deltas (Eq. 6) with multiset bookkeeping.

    Both observe the initial world as the first sample, then [samples]
    further worlds separated by [thin] MH steps. [burn_in] (default 0) MH
    steps are taken before the first observation and never counted.

    One sample step serves every single-query driver: {!start} observes
    the initial world, {!observe} folds in the world the caller just
    walked to. {!evaluate}, {!Adaptive}, {!Topk_eval} and the bench
    harness differ only in their stopping rule and timing around it. *)

type strategy = Naive | Materialized

type progress = {
  sample : int;  (** 0 is the initial world *)
  elapsed : float;  (** seconds since evaluation started *)
  marginals : Marginals.t;  (** live estimate — read-only *)
}

type run
(** One query's evaluation in progress: the chain, the maintained view
    (Materialized) or the query to re-run (Naive), and the marginals. *)

val start : strategy -> Pdb.t -> query:Relational.Algebra.t -> run
(** Drain the world's pending delta (updates made before evaluation
    belong to no sample), build the view or run the full query once, and
    observe the result as sample 0. *)

val observe : run -> unit
(** One sample point after the caller walked the chain: drain the
    world's delta, maintain the view by it (Materialized) or re-run the
    full query (Naive), and fold the answer into the marginals. Updates
    the [eval.*] counters and emits the [eval.sample] trace event. *)

val marginals : run -> Marginals.t
(** Live estimate, updated in place by {!observe}. *)

val evaluate :
  ?on_sample:(progress -> unit) ->
  ?burn_in:int ->
  strategy ->
  Pdb.t ->
  query:Relational.Algebra.t ->
  thin:int ->
  samples:int ->
  Marginals.t

val evaluate_sql :
  ?on_sample:(progress -> unit) ->
  ?burn_in:int ->
  strategy ->
  Pdb.t ->
  sql:string ->
  thin:int ->
  samples:int ->
  Marginals.t

val strategy_name : strategy -> string
