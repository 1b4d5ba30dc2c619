(** Parameter (weight) vectors for log-linear factors, learned by
    SampleRank or set by hand.

    Dense, in the manner of Factorie's feature domains: a feature name
    interns to an integer id once ({!intern}), and the id indexes one
    float array from then on ({!weights}). Scorers resolve their ids when
    they are built and read weights by id on every proposal; training and
    hand-set weights keep addressing features by name ({!get}, {!set},
    {!update_sparse}), and both land on the same slot, so an update is
    seen by every scorer at once with no invalidation step.

    A store is not safe to intern into from two domains at once. *)

type t

val create : unit -> t

val intern : t -> string -> int
(** The id of a feature name, allocating one (weight 0) on first sight.
    Ids are dense from 0 and stable for the store's lifetime. *)

val weights : t -> float array
(** The live weight array: [(weights p).(id)] is the current weight of
    [id]. Valid until the next {!intern} (or {!set} of an unseen name),
    which may move the weights to a larger array — scorers fetch it once
    per score, never keep it. *)

val set_weight : t -> int -> float -> unit

val name : t -> int -> string
(** The feature name an id was interned from. *)

val get : t -> string -> float
(** Missing weights are 0. Does not intern. *)

val set : t -> string -> float -> unit
val update : t -> string -> float -> unit
(** [update p k dw] adds [dw] to the weight of [k]. *)

val update_sparse : t -> (string * float) list -> scale:float -> unit
(** Adds [scale * v] to every listed feature weight. *)

val dot : t -> (string * float) list -> float

val cardinal : t -> int
(** Number of non-zero weights (interned ids at weight 0 do not count). *)

val copy : t -> t
