(** A database: a namespace of {!Table.t}.

    Role in the pipeline (§3): this is the "conventional DBMS" slot of the
    paper's architecture — it stores exactly {e one} possible world at any
    time. MCMC mutates it in place through [Core.World]; Algorithm 3 queries
    it directly and Algorithm 1 maintains views over it, so every plan
    ({!Algebra.t}) resolves its [Scan] nodes here. *)

type t

val create : unit -> t
val create_table : t -> ?pk:string -> name:string -> Schema.t -> Table.t
(** Raises [Invalid_argument] if the name is taken. *)

val add_table : t -> Table.t -> unit
val table : t -> string -> Table.t
(** Raises [Not_found]. *)

val tables : t -> Table.t list
