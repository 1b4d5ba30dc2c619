(** Relational algebra with multiset semantics.

    The operator set covers the query class the paper evaluates: selections,
    multiset projections, products/joins, distinct, union/difference,
    grouped aggregation, and {!constructor-Count_join} — the decorrelated
    form of scalar COUNT subqueries with one correlation equality
    (paper Query 3).

    Role in the pipeline (§4): a value of {!t} is the shared plan language
    both evaluators consume — Algorithm 3 re-executes it per sampled world
    via {!Eval.eval}, Algorithm 1 compiles it once into a stateful
    {!View.t} and maintains the answer from deltas (Eq. 6). *)

type agg =
  | Count_star
  | Count of string
  | Sum of string
  | Avg of string
  | Min of string
  | Max of string

type agg_item = { agg : agg; as_name : string }
type dir = Asc | Desc

type t =
  | Scan of { table : string; alias : string option }
  | Select of Expr.t * t
  | Project of string list * t
      (** Multiset projection: duplicate output rows keep their counts. *)
  | Product of t * t
  | Join of Expr.t * t * t
  | Distinct of t
  | Union of t * t
  | Diff of t * t  (** Multiset difference (monus). *)
  | Group_by of { keys : string list; aggs : agg_item list; child : t }
  | Count_join of { child : t; key : string; sub : t; sub_key : string; as_name : string }
      (** Extends every [child] row with the number of [sub] rows whose
          [sub_key] equals the row's [key] (0 when none match). *)
  | Order_by of { keys : (string * dir) list; limit : int option; child : t }
      (** Ordering with optional LIMIT. As a multiset the result only
          changes when [limit] is set (top-N rows, counting multiplicity,
          ties broken by full-row order). *)

val scan : ?alias:string -> string -> t
val select : Expr.t -> t -> t
val project : string list -> t -> t
val join : Expr.t -> t -> t -> t
val group_by : string list -> agg_item list -> t -> t
val count_star : ?as_name:string -> t -> t
(** [count_star q] counts the rows of [q] (global aggregate). *)

val output_schema : Database.t -> t -> Schema.t
(** Raises [Failure]/[Not_found] on unknown tables or columns. *)

val base_tables : t -> string list
(** Names of base tables read anywhere in the expression, without
    duplicates. *)

val equal : t -> t -> bool
(** Canonical structural identity, monomorphic throughout. Two plans that
    are [equal] produce identical answers over any database, so the
    multi-query optimizer treats them as the {e same} plan: the serving
    registry's subplan cache maintains one shared view node per
    equivalence class. Plans should be normalized ({!Optimizer.optimize})
    before comparison so syntactic variants of the same query coincide. *)

val hash : t -> int
(** Consistent with {!equal}: [equal a b] implies [hash a = hash b]. *)

val pp : Format.formatter -> t -> unit
