(** Seeded random number generation with explicit state, so every sampler in
    the system is reproducible and parallel chains get independent streams.

    This is the engine behind {!Mcmc.Rng} (which re-exports it verbatim),
    homed below the factor-graph and lineage layers so that they can draw
    from the same stream type without depending on lib/mcmc. It is the one
    module allowed to touch [Random.*] (lint rule R9, rng-discipline):
    everything else threads a [t], so a seed fully determines every sample
    path — the invariant the WAL-resume bit-identical guarantee rests on. *)

type t

val create : int -> t
(** The canonical chain stream: seed mixed with a fixed golden-ratio salt. *)

val of_seeds : int array -> t
(** A stream from a raw seed array, for side streams (corpus synthesis,
    annotator noise, Monte Carlo over lineage) that must stay byte-identical
    to their historically seeded draws. *)

val split : t -> t
(** A new generator seeded from (but independent of) this one — four
    30-bit draws of parent entropy, so sibling streams (one per
    parallel chain) do not collide on their early draws. *)

val int : t -> int -> int
(** [int t n] is uniform in [0, n). *)

val float : t -> float -> float
val uniform : t -> float
(** Uniform in [0, 1). *)

val bool : t -> bool
val bernoulli : t -> float -> bool
(** [bernoulli t p] is true with probability [p]. *)

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
