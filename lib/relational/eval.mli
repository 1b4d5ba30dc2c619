(** Full (from-scratch) evaluation of algebra expressions.

    This is the "black box DBMS" execution path: the naive query evaluator of
    the paper (Algorithm 3) re-runs these plans over every sampled world. *)

type rel = { schema : Schema.t; bag : Bag.t }
(** Evaluation result. A [Scan]'s bag is {!Table.rows} itself (shared and
    read-only), and an operator may pass its child's bag through; treat
    every result as read-only and copy before retaining. *)

val eval : Database.t -> Algebra.t -> rel
(** [eval db q] evaluates [q] against the current database state. *)

val join_bags : ?pred:Expr.t -> Schema.t -> Schema.t -> Bag.t -> Bag.t -> rel
(** Joins two row multisets (hash join when [pred] contains an equality pair,
    nested loops otherwise). Signed counts multiply, so this is usable on
    delta bags — the incremental view engine relies on it. *)
