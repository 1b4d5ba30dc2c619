(** Seeded random number generation with explicit state, so every sampler in
    the system is reproducible and parallel chains get independent streams.

    The engine is {!Prng} (lib/prng), homed below the factor-graph and
    lineage layers so they can consume the same stream type; this module
    re-exports it under the historical [Mcmc.Rng] name and the types are
    equal ([t = Prng.t]). Lint rule R9 (rng-discipline) confines [Random.*]
    to lib/prng/prng.ml — all other code threads a [t]. *)

type t = Prng.t

val create : int -> t
(** The canonical chain stream: seed mixed with a fixed golden-ratio salt. *)

val of_seeds : int array -> t
(** A stream from a raw seed array, for side streams (corpus synthesis,
    annotator noise) that must stay byte-identical to their historically
    seeded draws. *)

val int : t -> int -> int
(** [int t n] is uniform in [0, n). *)

val float : t -> float -> float

val bool : t -> bool

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates. *)

val log_uniform : t -> float
(** log of a uniform draw, never [-inf]; compare against log acceptance
    ratios without exponentiating. *)

val export : t -> string
(** Opaque binary image of the current stream position, for checkpointing.
    Exporting the same state always yields the same bytes. *)

val import : t -> string -> unit
(** Replace this generator's state in place with a previously {!export}ed
    image — every closure holding the generator continues on the restored
    stream, which is what lets a resumed MCMC chain replay bit-identically.
    Raises [Invalid_argument] on an undecodable blob. *)
