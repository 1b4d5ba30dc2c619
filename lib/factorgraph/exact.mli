(** Exact inference by enumeration — intractable in general (#P-hard, as the
    paper stresses) but invaluable as ground truth on small graphs: the test
    suite validates MCMC and BP against these quantities. *)

exception Too_large of int
(** Raised when the hidden state space exceeds the enumeration budget. *)

val state_space_size : Graph.t -> int
(** Product of hidden-variable domain sizes (observed variables are fixed). *)

val log_partition : ?budget:int -> Graph.t -> Assignment.t -> float
(** log Z_X of Eq. 1, summing over all hidden assignments with observed
    variables clamped to their values in the given assignment. *)

val marginals : ?budget:int -> Graph.t -> Assignment.t -> (Graph.var * float array) list
(** Posterior marginal distribution of every hidden variable. *)

val event_probability : ?budget:int -> Graph.t -> Assignment.t -> (Assignment.t -> bool) -> float
(** Probability of a predicate of the world — e.g. "tuple t is in Q(w)"
    (Eq. 4), computed exactly. *)

(* pdb_lint: allow R11 — reference implementation: SampleRank's learned MAP is checked against it *)
val map_assignment : ?budget:int -> Graph.t -> Assignment.t -> Assignment.t
(** Highest-scoring world (ties broken by enumeration order). *)
