(** Long-lived query daemon: one {!Registry} chain served over a
    Unix-domain socket.

    The paper's unit of service is the standing query set, not the
    one-shot query — one MCMC walk fans each world-delta out to every
    registered view ({!Registry}). The daemon makes that concrete:
    a single-process [accept]/[select] loop (stdlib [Unix] only) runs
    the chain continuously while clients connect over a Unix-domain
    stream socket, speak the line-delimited JSON protocol of
    {!Protocol} (normative spec: docs/SERVER.md), [register] SQL
    queries mid-run (reusing the shared-subplan cache), [stream]
    marginal updates at a chosen or {!Scheduler}-chosen cadence, and
    [detach] with frozen results.

    {2 Production concerns — the feature, not an afterthought}

    - {e Admission control}: at most [max_clients] connections (excess
      ones get an [admission_clients] error frame and are closed), at
      most [max_plans] registered queries ([admission_plans]; rejected,
      never queued), at most [max_bootstraps_per_tick] full bootstrap
      evaluations per loop iteration ([admission_bootstrap]; the client
      retries next tick).
    - {e Backpressure}: client sockets are non-blocking and writes never
      block the sampling loop. When a client's unflushed output exceeds
      [slow_client_bytes], its stream updates coalesce drop-oldest into
      a one-slot latch per subscription — a slow reader sees the newest
      update late rather than every update never, and the chain never
      waits ([daemon.coalesced_updates]).
    - {e Convergence-aware scheduling}: subscriptions with [every = 0]
      delegate their cadence to {!Scheduler} — fresh queries stream
      densely, converged ones are thinned ([daemon.sched_thinned]).
    - {e Durability}: constructed {!of_durable}, every sample journals
      through {!Durable} — a SIGKILLed daemon resumes from its WAL and
      clients reattach by query name to bit-identical marginals
      (tools/daemon_smoke.sh pins this end to end).

    {2 Determinism knobs}

    [await_queries] holds sampling until that many queries are
    registered, so a fleet of clients can all attach at sample 0;
    [max_samples] stops the chain at an exact sample count while the
    daemon keeps serving (marginals, detach, stats). Together they make
    a killed-and-resumed run comparable frame-for-frame with an
    uninterrupted twin — the registration/sampling race is eliminated,
    not papered over.

    Queries outlive their registering connection: a disconnect drops
    subscriptions, never plans. Metrics: [daemon.clients],
    [daemon.rejected], [daemon.coalesced_updates], [daemon.sched_thinned],
    [daemon.update_encodes] (docs/OBSERVABILITY.md).

    {2 One update per query per sample}

    Each sample computes every query's estimates once, for both the
    scheduler's summary and the stream; a due query's [update] frame is
    encoded at most once, and every subscriber (live [outbuf] or
    drop-oldest latch) receives that same string. *)

type config = {
  socket_path : string;  (** Unix-domain socket path; replaced if present *)
  max_clients : int;  (** concurrent connections admitted *)
  max_plans : int;  (** registered standing queries admitted *)
  max_bootstraps_per_tick : int;
      (** full bootstrap evaluations per loop iteration *)
  thin : int;  (** MH steps per sample ({!Registry.step}) *)
  max_samples : int;  (** stop sampling after this many; [0] = unbounded *)
  await_queries : int;
      (** hold sampling until this many queries are registered; [0] =
          start immediately *)
  slow_client_bytes : int;
      (** unflushed-output threshold beyond which updates coalesce *)
  sndbuf_bytes : int;
      (** [SO_SNDBUF] set on accepted sockets; [0] = system default.
          Bounds the kernel's invisible per-client backlog so the
          application-level coalescing above is the real limit — and
          lets tests make a slow reader slow with kilobytes instead of
          the default ~200 KiB. *)
}

val default_config : socket_path:string -> config
(** 64 clients, 256 plans, 8 bootstraps/tick, thin 2, unbounded samples,
    no await, 64 KiB slow threshold, system socket buffers. *)

type t

val of_registry : ?scheduler:Scheduler.t -> config -> Registry.t -> t
(** Serve a plain registry (no durability). Binds and listens on
    [config.socket_path] immediately — an existing socket file is
    unlinked first. Raises [Unix.Unix_error] if the bind fails. *)

val of_durable : ?scheduler:Scheduler.t -> config -> Durable.t -> t
(** Serve a journaled registry: each sample is journaled (and the log
    compacted when due) inside {!Registry.step}, and an orderly
    shutdown runs {!Durable.close}. *)

val tick : t -> timeout:float -> unit
(** One loop iteration: poll ([select] with [timeout]), accept, read and
    answer client frames, walk one sample if sampling is active, journal
    it, emit due stream updates, flush what the sockets will take.
    Exposed so tests and the in-process bench can drive the daemon
    deterministically tick by tick. *)

val run : t -> unit
(** {!tick} until a client's [shutdown] is processed, then close every
    connection, the listener, and (when durable) the journal. The
    timeout per tick is 0 while sampling is active and 50 ms once the
    chain is idle at [max_samples]. *)

val close : t -> unit
(** Force-release sockets (listener + clients) without a checkpoint —
    the SIGKILL-adjacent path tests use; {!run} already closes cleanly. *)

(** {1 Introspection} (the counters behind {!Protocol.Stats_reply}) *)

val samples : t -> int
val rejected : t -> int
(** Admission rejections of any kind (clients, plans, bootstraps). *)

val coalesced : t -> int
(** Stream updates dropped-oldest into a fresher one. *)

val thinned : t -> int
(** Scheduler-skipped update opportunities ([every = 0] subscriptions
    at cadence > 1). *)
