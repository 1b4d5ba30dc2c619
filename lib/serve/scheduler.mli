(** Convergence-aware update cadence for standing queries.

    The daemon has one sample budget per tick and many subscribed
    queries; this module decides how often each query's streamed update
    is worth emitting. Each tracked query keeps a sliding window of a
    scalar summary of its marginals (the sum of estimate probabilities —
    cheap, and it moves whenever any answer tuple's marginal moves).
    Per query the scheduler computes a windowed effective sample size
    ({!Mcmc.Diagnostics.effective_sample_size}) and a split-half
    potential scale reduction factor ({!Mcmc.Diagnostics.gelman_rubin}
    over the window's two halves), then maps them to a cadence: emit an
    update every [cadence] samples.

    The pinned degenerate-input contract (ISSUE 9 bugfix): R̂ is [nan]
    for short or constant windows and ESS can be [0] — both MUST read
    as "not converged, schedule densely" (cadence 1), never as
    "converged, thin aggressively". A fresh query therefore streams
    every sample until its window fills and its diagnostics become
    finite; only then does thinning engage, growing with ESS/n up to
    [max_thin]. [test/test_daemon.ml] pins this on 0/1/2-length and
    constant windows. *)

type t

val create :
  ?window:int -> ?min_window:int -> ?rhat_threshold:float -> ?max_thin:int -> unit -> t
(** [window] (default 64) bounds the per-query summary ring;
    [min_window] (default 16) is the fill level below which a query is
    always dense; [rhat_threshold] (default 1.1) is the R̂ above which a
    query is treated as still mixing; [max_thin] (default 16) caps the
    cadence for fully converged queries. *)

val track : t -> int -> unit
(** Start scheduling query id [q]. Idempotent; a re-track resets the
    window (a re-registered query is fresh again). *)

val untrack : t -> int -> unit

val observe : t -> int -> float -> unit
(** Append one scalar summary for query [q] (no-op if untracked). *)

val cadence : t -> int -> int
(** Samples between updates for query [q]: [1] = dense. Untracked
    queries are dense. Always ≥ 1 and ≤ [max_thin]. *)

(* pdb_lint: allow R11 — test hook: the window's (ess, rhat), which no public call reports *)
val diagnostics : t -> int -> (float * float) option
(** [(ess, rhat)] over the current window, exactly as {!cadence} sees
    them ([None] if untracked) — exposed so tests can pin the
    nan/ess=0 → dense contract against the same numbers. *)
