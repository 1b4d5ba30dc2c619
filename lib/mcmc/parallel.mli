(** Parallel chain execution on OCaml 5 domains (§5.4).

    Each worker gets an index and an independently split RNG; results are
    collected in index order. The number of simultaneously running domains
    is capped to the machine's recommended domain count. *)

exception Job_failed of { index : int; attempts : int; exn : exn }
(** A job failed every attempt it was given: [index] is its position in
    [0 .. n-1], [attempts] how many times it ran (1 when no retries were
    requested, [retries + 1] when a job is deterministically poisoned),
    and [exn] the {e last} exception it raised. A supervisor reading
    [attempts = retries + 1] knows the fault survived every retry and
    should fail fast rather than reschedule. *)

val map :
  ?retries:int ->
  ?backoff_s:float ->
  ?on_retry:(index:int -> attempt:int -> exn -> unit) ->
  n:int ->
  (int -> 'a) ->
  'a list
(** [map ~n f] evaluates [f 0 .. f (n-1)] on separate domains (batched when
    [n] exceeds the hardware parallelism) and returns results in order.

    A raising job is retried in place up to [retries] times (default 0) on
    the same domain, sleeping [backoff_s * 2{^attempt-1}] seconds before
    each retry (default 0, no backoff) and calling [on_retry] just before
    re-running — the hook is where callers count retries and where a
    checkpoint-aware job arranges to resume from its last snapshot. Retries
    exhausted, the first failure (in claim order) wins: remaining workers
    stop claiming new jobs, every spawned domain is joined, and
    {!Job_failed} carrying the job's index, total attempt count, and last
    exception is raised — rather than surfacing a bare worker exception or
    dying on an unfilled result slot. Metric: [parallel.retries]. *)
