(** Named counters, gauges, and log-bucketed histograms.

    This is the measurement substrate behind the paper's performance
    claims (Fig 4a/4b/5/6): the instrumented hot paths — MH proposals in
    {!Mcmc.Metropolis}, delta sizes and maintenance timings in
    {!Core.Evaluator}, per-operator row counts in {!Relational.Eval} and
    {!Relational.View} — record into metrics declared here by name.
    [docs/OBSERVABILITY.md] is the catalogue of every metric the repo
    exports.

    {2 Cost model}

    Collection is globally gated by {!set_enabled} (default: off). Every
    instrumented call site checks {!enabled} once and does nothing else
    when collection is off, so the tier-1 benchmarks are unaffected by
    the instrumentation being present. When enabled, counters and
    histograms use [Atomic] operations and are therefore safe (and
    deterministic, since integer addition commutes) under concurrent
    updates from multiple [Domain]s — the per-domain chains of
    {!Mcmc.Parallel} all record into the same registry and the totals on
    join equal the sum of per-domain contributions.

    {2 Naming}

    Handles are find-or-create by name within a registry, so independent
    modules (e.g. [Core.Evaluator] and [bench/harness.ml]) can feed the
    same metric by using the same name. Re-requesting a name with a
    different metric kind raises [Invalid_argument]. *)

(** {1 Global switch} *)

val set_enabled : bool -> unit
(** Turn collection on or off process-wide. Off by default. *)

val enabled : unit -> bool
(** Current state of the switch — the one check every instrumented call
    site performs before doing any work. *)

(** {1 Registries} *)

type t
(** A registry: a named collection of metrics. Most code uses
    {!global}; tests create private registries to exercise it without
    interference. *)

val global : t
(** The process-wide default registry; [?reg] arguments default to it. *)

val create : unit -> t
(** A fresh empty registry. *)

val reset : t -> unit
(** Zero every metric in the registry {e without} invalidating existing
    handles: counters drop to 0, gauges to [nan]-free 0.0, histograms to
    empty. Used by tests and by long-running processes that snapshot
    periodically. *)

(** {1 Counters}

    Monotonically increasing integers (event counts, accumulated
    nanoseconds). *)

type counter

val counter : ?reg:t -> string -> counter
(** Find or create the counter [name] in [reg] (default {!global}). *)

val incr : counter -> unit
(** Add 1. No-op while collection is disabled. *)

val add : counter -> int -> unit
(** Add [n]. No-op while collection is disabled. *)

(** {1 Gauges}

    Last-write-wins floats for level measurements (table sizes,
    configured scale). *)

type gauge

val gauge : ?reg:t -> string -> gauge
val set_gauge : gauge -> float -> unit
(** No-op while collection is disabled. *)

(** {1 Histograms}

    Log-bucketed (powers of two) distributions of non-negative integer
    samples — delta cardinalities, per-proposal latencies in
    nanoseconds. Bucket 0 collects samples [<= 0]; bucket [k >= 1]
    collects samples in [[2{^k-1}, 2{^k} - 1]], so relative resolution
    is a constant factor of 2 over the whole 62-bit range. *)

type histogram

val histogram : ?reg:t -> string -> histogram

val observe : histogram -> int -> unit
(** Record one sample. No-op while collection is disabled. *)

val hist_count : histogram -> int
(** Number of samples recorded. *)

val hist_sum : histogram -> int
(** Sum of all samples. Each sample is added exactly as given — the sum
    is not subject to bucketing error. *)

val hist_max : histogram -> int
(** Largest sample seen, or 0 if empty. *)

val hist_mean : histogram -> float
(** [hist_sum / hist_count], or 0.0 if empty. *)

val hist_buckets : histogram -> (int * int * int) list
(** Non-empty buckets as [(lo, hi, count)], inclusive bounds, ascending. *)

val quantile : histogram -> float -> int
(** [quantile h q] estimates the [q]-quantile ([0. <= q <= 1.]) as the
    upper bound of the bucket containing it — an overestimate by at most
    a factor of 2. 0 if the histogram is empty. *)

val bucket_index : int -> int
(** The bucket a sample falls into (exposed for tests): [bucket_index v]
    is 0 for [v <= 0] and [1 + floor(log2 v)] otherwise. *)

val bucket_bounds : int -> int * int
(** Inclusive [(lo, hi)] range of a bucket index; [(min_int, 0)] for
    bucket 0. *)

(** {1 Snapshots} *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of {
      count : int;
      sum : int;
      max : int;
      buckets : (int * int * int) list;  (** [(lo, hi, count)], ascending *)
    }

val snapshot : t -> (string * value) list
(** Point-in-time values of every metric in the registry, sorted by
    name. Safe to call concurrently with updates (each metric is read
    atomically; the set as a whole is not a consistent cut). *)

val find : t -> string -> value option
(** The current value of one metric by name, if registered. *)
