(** Full (from-scratch) evaluation of algebra expressions.

    This is the "black box DBMS" execution path: the naive query evaluator of
    the paper (Algorithm 3) re-runs these plans over every sampled world. *)

type rel = { schema : Schema.t; bag : Bag.t }
(** Evaluation result. For [Scan] without alias the bag aliases live table
    storage; treat results as read-only and copy before retaining. *)

val eval : ?override:(string -> Bag.t option) -> Database.t -> Algebra.t -> rel
(** [eval db q] evaluates [q] against the current database state.

    [override] substitutes the row multiset of named base tables (keeping
    their schema); the view-maintenance evaluator uses it to run the modified
    query [Q'(w, Δ)] of Eq. 6 with a delta in place of a base table. *)

val join_bags : ?pred:Expr.t -> Schema.t -> Schema.t -> Bag.t -> Bag.t -> rel
(** Joins two row multisets (hash join when [pred] contains an equality pair,
    nested loops otherwise). Signed counts multiply, so this is usable on
    delta bags — the incremental view engine relies on it. *)
