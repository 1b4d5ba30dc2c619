(** Finite domains for discrete random variables.

    A domain is an ordered set of named values; variables take values by
    index into their domain. *)

type t

val make : string list -> t
(** Raises [Invalid_argument] on duplicates or an empty list. *)

val size : t -> int
val value : t -> int -> string
val index_opt : t -> string -> int option
val boolean : t
(** The two-valued domain ["false"; "true"]. *)
