(** Exact per-document inference for the *linear-chain* CRF via
    forward–backward (skip factors are outside chain structure and are
    ignored — inference over the full skip-chain model is what MCMC is
    for). *)

val model_of_doc : Crf.t -> doc:int -> Factorgraph.Chain_fb.model
(** Node potentials are emission + shape + bias, edge potentials the
    transition weights, read by id from the CRF's compiled model when
    the model is built ({!Crf.node_weight}, {!Crf.transition_weight}). *)

(* pdb_lint: allow R11 — reference implementation: MCMC and generative-eval marginals are tested against it *)
val marginals : Crf.t -> doc:int -> float array array
(** [positions × 9] label marginals for one document, in {!Labels.all}
    order. *)
