(** Tuple-marginal estimates (Eq. 5): counts of how many sampled worlds
    contained each answer tuple, normalized by the number of samples.

    Membership uses the multiset convention of the paper's remark on
    projections: a tuple is in the answer of a sampled world iff its
    maintained count is positive.

    Zero-sample convention: with z = 0 observed worlds there is no
    evidence, so {!probability} is 0. for every tuple, {!estimates} is
    empty, and {!squared_error_to} charges nothing for the estimator's
    own (empty) support. Every probability-deriving accessor shares this
    convention — none substitutes a fake z = 1 normalizer. *)

type t

val create : unit -> t

val observe : t -> Relational.Bag.t -> unit
(** Folds one sampled answer set in: every row with positive count gets +1;
    the normalizer z gets +1. *)

val samples : t -> int

val probability : t -> Relational.Row.t -> float
(** Estimated Pr[t ∈ Q(W)]; 0 for never-seen tuples. *)

val estimates : t -> (Relational.Row.t * float) list
(** All observed tuples with probabilities, sorted by row. *)

val counts : t -> (Relational.Row.t * int) list
(** The raw per-tuple hit counts, sorted by row — the canonical image a
    checkpoint stores (probabilities are derived, counts are exact). *)

val of_counts : samples:int -> (Relational.Row.t * int) list -> t
(** Rebuild an estimator from checkpointed {!counts} and its normalizer.
    Inverse of [counts]/{!samples}. Raises [Invalid_argument] on a negative
    normalizer or a count outside [0, samples]. *)

val merge : t list -> t
(** Pools counts and normalizers across independent chains (§5.4). *)

val merge_shards : t list -> t
(** Unions per-shard marginals of one query over a {e partitioned}
    database: every shard must have observed the same number of samples
    z (raises [Invalid_argument] otherwise); the result keeps z as its
    normalizer and gives each row min(z, Σ shard counts) — exact for
    rows only one shard can produce, the union bound otherwise.
    Contrast with {!merge}, which averages chains over the {e same}
    data and sums the normalizers. *)

val squared_error_to : reference:(Relational.Row.t * float) list -> t -> float
(** Element-wise squared loss over the union of support — the paper's
    evaluation metric. *)
