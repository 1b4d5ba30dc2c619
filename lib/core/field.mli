(** A field location in the database: one cell of one row, addressed by
    table, primary-key value, and column. Fields are the random variables of
    the probabilistic database (§3.2). *)

type t = { table : string; key : Relational.Value.t; column : string }

val make : table:string -> key:Relational.Value.t -> column:string -> t
val pp : Format.formatter -> t -> unit
