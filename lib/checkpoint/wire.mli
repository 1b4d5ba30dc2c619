(** Payload atoms shared by the snapshot ({!State}) and delta-log
    ({!Wal}) grammars: relational values, rows, signed bag entries, and
    query plans, over the {!Codec} primitives.

    Both file formats must agree byte-for-byte on how a row is spelled —
    a WAL record replayed over a restored snapshot applies to the same
    tables the snapshot encoded — so the spelling lives here once.
    docs/DURABILITY.md is the normative byte-level description of every
    encoder in this module. *)

open Relational

val enc_entry : Codec.W.t -> Row.t * int -> unit
(** A signed bag entry: row then multiplicity as a zigzag varint
    (negative counts are the Δ− side of a delta). *)

val dec_entry : Codec.R.t -> Row.t * int

val enc_algebra : Codec.W.t -> Algebra.t -> unit
(** Query plan as a length-prefixed [Marshal] blob. [Algebra.t] is a
    pure, closure-free ADT, so equal plans marshal to equal bytes and
    the blob sits inside its frame's CRC. *)

val dec_algebra : Codec.R.t -> Algebra.t
(** Raises {!Codec.Corrupt} if the blob does not unmarshal. *)
