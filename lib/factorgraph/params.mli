(** Sparse parameter (weight) vectors for log-linear factors, keyed by
    feature name. Learned by SampleRank or set by hand. *)

type t

val create : unit -> t
val get : t -> string -> float
(** Missing weights are 0. *)

val set : t -> string -> float -> unit
val update : t -> string -> float -> unit
(** [update p k dw] adds [dw] to the weight of [k]. *)

val update_sparse : t -> (string * float) list -> scale:float -> unit
(** Adds [scale * v] to every listed feature weight. *)

val dot : t -> (string * float) list -> float
val cardinal : t -> int
val copy : t -> t
