(** Monte Carlo error estimates for tuple marginals (§4.1, Eq. 5 estimator).

    Role in the pipeline: consumes the {!Marginals.t} accumulated by either
    evaluator (Algorithm 1 or Algorithm 3 — the estimator is agnostic to how
    each world was queried) and turns sample counts into error bars; the
    any-time stopping rules of {!Topk_eval} are built on these intervals.

    Treating the z thinned samples as roughly independent (the paper's
    thinning regime), the estimate p̂ of a tuple marginal has a binomial
    sampling distribution. With correlated chains these intervals are
    optimistic by the autocorrelation factor; scale [effective_samples] by an
    ESS estimate when that matters. *)

val wilson_interval :
  ?effective_samples:int -> ?z_score:float -> Marginals.t -> Relational.Row.t -> float * float
(** Wilson score interval (default [z_score] 1.96 ≈ 95%); well-behaved at
    p̂ ∈ {0, 1}, unlike the normal approximation. *)

val top_k : Marginals.t -> int -> (Relational.Row.t * float) list
(** The k most probable answer tuples (ties broken by row order) — the
    ranking MystiQ-style consumers ask for. *)
