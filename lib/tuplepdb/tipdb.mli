(** Tuple-independent probabilistic databases — the classic representation
    (MystiQ [5], Dalvi–Suciu [8]) this paper's factor-graph approach is
    positioned against.

    Each tuple carries an independent existence probability; query
    evaluation is *intensional*: operators compose per-answer lineage
    formulas, and answer probabilities come from {!Lineage}. Strengths and
    limits are both on display: exact answers when the lineage stays small,
    #P-hard blowups when it does not, and — structurally — no way to
    express the correlated models (skip chains, coreference) the factor
    graph handles; nor aggregates, which intensional semantics does not
    close over (the paper's §1 argument). *)

type t

type answer = {
  row : Relational.Row.t;
  lineage : Lineage.t;
}

val create : unit -> t

val add_table :
  t -> name:string -> Relational.Schema.t -> (Relational.Row.t * float) list -> unit
(** Rows with existence probabilities in [0,1]; probability 1 rows are
    deterministic. Raises [Invalid_argument] on out-of-range probabilities
    or duplicate table names. *)

val probability_of_event : t -> int -> float

val eval : t -> Relational.Algebra.t -> (Relational.Schema.t * answer list)
(** Intensional evaluation. Supported operators: Scan, Select, Project,
    Product, Join, Distinct, Union. Raises [Failure] on Diff, Group_by,
    Count_join and Order_by — aggregates are exactly what this
    representation cannot evaluate (use the MCMC evaluator). Projection
    merges duplicate rows by OR-ing lineages (probabilistic set
    semantics). *)

val answer_probabilities :
  ?method_:[ `Exact | `Monte_carlo of int * int ] ->
  ?budget:int ->
  t ->
  Relational.Algebra.t ->
  (Relational.Row.t * float) list
(** Probabilities for every answer tuple; [`Monte_carlo (samples, seed)]
    falls back to sampling. Default [`Exact]. Sorted by row. *)
