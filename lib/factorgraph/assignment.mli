(** A full assignment of values (by domain index) to the variables of a
    graph — one possible world of the graphical model. *)

type t

val create : int -> t
(** All variables start at value index 0. *)

val size : t -> int
val get : t -> int -> int
val set : t -> int -> int -> unit
val copy : t -> t

val with_values : t -> (int * int) list -> (unit -> 'a) -> 'a
(** [with_values a changes f] runs [f] with [changes] applied to [a], then
    restores the previous values (even if [f] raises). *)
