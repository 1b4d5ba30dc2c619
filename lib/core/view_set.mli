(** The one per-sample step of Algorithm 1 (§4.2), for any number of
    views: build each view over the world, {!maintain} it from every MCMC
    delta, {!fold} its answer into its tuple marginals (Eq. 5).
    {!Evaluator}'s Materialized strategy is a set of one view;
    [Serve.Registry]'s step, absorb and WAL replay drive the same code.
    All views share one {!Relational.View.cache}, so equal subplans are
    maintained once per delta batch. Entries keep registration order. *)

type entry = private {
  id : int;
  name : string;
  view : Relational.View.t;
  marginals : Marginals.t;
}

type t

val create : unit -> t

val bootstrap :
  t -> Relational.Database.t -> id:int -> name:string -> Relational.Algebra.t -> entry
(** One full evaluation, folded in as the query's sample 0. *)

val restore :
  t ->
  Relational.Database.t ->
  id:int ->
  name:string ->
  Relational.Algebra.t ->
  counts:(Relational.Row.t * int) list ->
  samples:int ->
  unit
(** A view built like {!bootstrap}'s, by one full evaluation over the
    restored database, with marginals from {!Marginals.of_counts} instead
    of a sample-0 fold. *)

val remove : t -> entry -> unit

val maintain : t -> Relational.Delta.t -> unit
(** One delta batch, already applied to the database, into every view.
    Without a {!fold} after it, this is an absorb. *)

val fold : t -> unit
(** One sample point: every view's answer into its marginals. *)

val find : t -> int -> entry option
val entries : t -> entry list
val count : t -> int
val shared_nodes : t -> int
val cached_nodes : t -> int
