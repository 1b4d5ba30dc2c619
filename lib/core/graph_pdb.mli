(** A probabilistic database whose distribution is a materialized factor
    graph with hidden variables bound one-to-one to database fields.

    This is the direct realization of §3.2: each uncertain field is a hidden
    variable; writing a new value to the variable writes through to the
    tuple on disk (here: the in-memory table) and lands in the pending
    delta. Large models (the skip-chain CRF over millions of tokens) use the
    lazy scorer in the [ie] library instead — this binding is for graphs
    small enough to materialize, for exact-vs-sampled validation, and for
    the quickstart example. *)

type t

val create : World.t -> t
val world : t -> World.t
val graph : t -> Factorgraph.Graph.t
val assignment : t -> Factorgraph.Assignment.t

val bind :
  ?to_value:(string -> Relational.Value.t) ->
  t ->
  Field.t ->
  Factorgraph.Domain.t ->
  Factorgraph.Graph.var
(** [bind t field dom] adds a hidden variable for [field]. The field's
    current database value (rendered with [Value.to_string]) must be a
    member of [dom]; the variable starts there. [to_value] converts a domain
    value back to a database cell (default: [Text]). *)

val set : t -> Factorgraph.Graph.var -> int -> unit
(** Writes a variable (by domain-value index) through to the database. *)

val flip_proposal : t -> World.t Mcmc.Proposal.t
(** Uniform single-field flip over all bound variables; symmetric. *)

val pdb : t -> rng:Mcmc.Rng.t -> Pdb.t
(** Packages the binding with its flip proposal. *)
