(** Algebraic rewrites applied to parsed queries.

    The rewriter is purely syntactic (alias-driven) so it runs without a
    database: selections over products are split by which side their columns
    belong to, single-side conjuncts are pushed down, and cross-side equality
    conjuncts turn the product into a join — the plan shape both the naive
    evaluator and the view maintainer want.

    Role in the pipeline (§4): runs once between {!Sql.parse} and either
    evaluator. Getting joins recognized before {!View.create} is what keeps
    Algorithm 1's per-delta work proportional to |Δ| rather than to a
    cross product (Eq. 6's Q′ terms). *)

val optimize : Algebra.t -> Algebra.t

val reorder : Database.t -> Algebra.t -> Algebra.t
(** Stats-driven join ordering, the optimizer's one database-dependent
    pass. Flattens each maximal [Join]/[Product] cluster into leaves and
    join conjuncts, estimates leaf cardinalities from {!Table.cardinal}
    and {!Table.distinct_keys}, and rebuilds a greedy left-deep order
    starting from the smallest leaf, preferring equi-connected
    extensions so the bootstrap evaluation probes indexes instead of
    building cross products. Because reordering permutes the cluster's
    output columns, it fires only where columns are addressed by name
    (under [Project]/[Group_by]/[Count_join] sub) and never where
    positions are observable (the query root, [Union]/[Diff] arms,
    [Order_by] with LIMIT). Bails back to the input plan on any unknown
    or ambiguous column. Increments [optimizer.join_reorders] per
    cluster actually changed. Run after {!optimize}; the result is
    answer-equivalent to its input on every database. *)
