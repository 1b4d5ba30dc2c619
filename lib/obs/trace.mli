(** Structured trace events: a fixed-capacity ring buffer plus pluggable
    sinks.

    Where {!Metrics} aggregates, tracing keeps {e individual} events —
    "sample 17 observed, delta had 3 rows" — so a slow run can be
    replayed step by step. Events are tiny records (timestamp, name,
    string key/value pairs). The last [capacity] events are always
    available from the in-memory ring via {!recent}; a sink
    additionally receives every event as it is emitted:

    - {!sink.Null} — ring only (the default);
    - {!sink.Stderr} — one human-readable line per event on stderr;
    - a JSON-lines channel ({!sink_to_file}) — one JSON object per
      line, suitable for [jq] and for loading into trace viewers.

    Tracing has its own switch, independent of metrics collection,
    because it is much more voluminous: {!emit} is a single flag check
    when disabled. Emission takes a mutex, so events from parallel
    chains interleave but never tear. *)

type event = {
  ts_ns : int;  (** wall-clock nanoseconds, {!Timer.now_ns} *)
  name : string;  (** dot-separated, e.g. ["eval.sample"] *)
  args : (string * string) list;  (** free-form payload *)
}

type sink =
  | Null  (** ring buffer only *)
  | Stderr  (** line-per-event on stderr *)
  | Channel of out_channel  (** JSON-lines; not closed by this module *)
  | Custom of (event -> unit)  (** caller-supplied consumer *)

val set_enabled : bool -> unit
(** Turn tracing on or off process-wide. Off by default. *)

val enabled : unit -> bool

val set_sink : sink -> unit
(** Replace the sink. If the previous sink was a channel opened by
    {!sink_to_file}, it is flushed and closed. *)

val sink_to_file : string -> unit
(** Open [path] for writing and install it as a JSON-lines sink. *)

val set_capacity : int -> unit
(** Resize the ring (default 1024 events); discards buffered events. *)

val emit : ?args:(string * string) list -> string -> unit
(** [emit ~args name] records an event now. No-op while disabled. *)

val recent : unit -> event list
(** Buffered events, oldest first (at most [capacity] of them). *)

val to_json : event -> string
(** One event as a single-line JSON object
    [{"ts_ns":..., "name":..., "args":{...}}]. *)

val close : unit -> unit
(** Flush and close a {!sink_to_file} channel and revert to {!sink.Null}.
    Safe to call when no file sink is installed. *)
