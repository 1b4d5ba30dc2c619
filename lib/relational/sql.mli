(** SQL front end for the paper's query class (§4; Queries 1–3 of §5).

    Role in the pipeline: parses the query text once into {!Algebra.t};
    after {!Optimizer.optimize}, the same plan serves Algorithm 3 (naive
    re-evaluation per sample) and Algorithm 1 (compiled to a maintained
    {!View.t}). Parsing is never on the sampling hot path.

    Supported grammar (case-insensitive keywords):

    {v
    SELECT star-or-items FROM table [alias] (, table [alias])...
      [WHERE condition] [GROUP BY col (, col)*]
    items     := col | agg | agg AS name  (comma-separated)
    agg       := COUNT( star-or-col ) | SUM(col) | AVG(col) | MIN(col) | MAX(col)
    condition := disjunctions/conjunctions of comparisons over columns,
                 integer/float/string literals, and scalar COUNT subqueries
    v}

    Scalar COUNT subqueries must be correlated to the outer query through
    exactly one equality (as in paper Query 3); they are decorrelated into
    {!Algebra.t.Count_join} nodes. *)

exception Parse_error of string

val parse : string -> Algebra.t
(** Parses and compiles to algebra (selections pushed down; products with
    equality predicates become joins). Raises {!Parse_error}. *)
