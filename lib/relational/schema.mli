(** Relation schemas: ordered, possibly qualified column names with types.

    Column names may be qualified ("T1.STRING") or bare ("STRING"). Lookup by
    a bare name matches a qualified column when the suffix after the dot
    matches and the match is unambiguous.

    Role in the pipeline: schemas are resolved once, at plan-build time
    ({!Expr.bind}, {!View.create}), never inside the per-sample loop — both
    Algorithm 1 and Algorithm 3 run over positional rows with name lookup
    already compiled away. *)

type column = { name : string; ty : Value.ty }
type t

exception Ambiguous_column of string
(** A (typically bare) name matched more than one column, e.g. ["X"]
    against a join schema carrying both ["T1.X"] and ["T2.X"]. *)

val make : column list -> t
val columns : t -> column list
val arity : t -> int
val column : t -> int -> column

val index_of : t -> string -> int
(** [index_of s name] resolves [name] (qualified or bare) to a position.
    Raises [Not_found] if absent and {!Ambiguous_column} if the name
    matches more than one column. *)

val names : t -> string list

val qualify : string -> t -> t
(** [qualify alias s] renames every column to ["alias.bare_name"]. *)

val concat : t -> t -> t
(** Schema of a product; raises [Failure] on duplicate full names. *)

val project : t -> string list -> t * int array
(** [project s cols] is the projected schema together with the positions of
    each projected column in [s]. Projected columns keep their bare name. *)

val bare : string -> string
(** Suffix after the final ['.'], or the whole name. *)
