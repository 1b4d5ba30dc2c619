(** Exact inference for linear-chain models by forward–backward and Viterbi,
    in O(n·L²) time — tractable where enumeration is not.

    This covers the paper's linear-chain CRF baseline exactly; the skip-chain
    model it motivates is *not* chain-structured, which is precisely why the
    paper resorts to MCMC. The test suite uses this module to validate the
    sampler on long chains. *)

type model = {
  length : int;  (** number of positions *)
  labels : int;  (** domain size L *)
  node : int -> int -> float;  (** [node i l] log-potential of label [l] at [i] *)
  edge : int -> int -> int -> float;
      (** [edge i l l'] log-potential between positions [i] and [i+1];
          queried for [i] in [0, length−2] *)
}

val log_partition : model -> float

val marginals : model -> float array array
(** [marginals m] has shape [length × labels]; each row sums to 1. *)

(* pdb_lint: allow R11 — reference implementation: checked against enumeration as the exact pairwise oracle *)
val pairwise_marginals : model -> int -> float array array
(** [pairwise_marginals m i] is the L×L joint of positions (i, i+1). *)

val sample : model -> Prng.t -> int array
(** Exact posterior sample by forward filtering / backward sampling — the
    generative (MCDB-style) alternative to MCMC, available only because a
    chain's normalizer is tractable. *)
