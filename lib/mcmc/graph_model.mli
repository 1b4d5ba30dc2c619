(** MCMC over materialized factor graphs: worlds are (graph, assignment)
    pairs and proposals flip one hidden variable at a time. *)

type world = { graph : Factorgraph.Graph.t; assignment : Factorgraph.Assignment.t }

val world_of : Factorgraph.Graph.t -> world

val flip : ?vars:Factorgraph.Graph.var array -> unit -> world Proposal.t
(** Uniformly picks a hidden variable (from [vars] if given) and a uniformly
    random new value for it. Symmetric, so the proposal ratio is zero; the
    model ratio touches only adjacent factors. *)
