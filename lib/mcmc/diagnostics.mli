(** Convergence diagnostics for scalar chain statistics. *)

val mean : float array -> float
val variance : float array -> float
(** Unbiased sample variance; 0 for fewer than two points. *)

(* pdb_lint: allow R11 — reference implementation: test_mcmc sums it lag by lag as the ESS that effective_sample_size must equal bit for bit *)
val autocorrelation : float array -> int -> float
(** Lag-k sample autocorrelation; 0 when undefined. *)

val effective_sample_size : float array -> float
(** ESS via the initial-positive-sequence estimator (sums autocorrelations
    until they turn non-positive). *)

val gelman_rubin : float array list -> float
(** Potential scale reduction factor R̂ over ≥2 equal-length chains; values
    near 1 indicate the chains agree. Returns [nan] for degenerate input. *)
