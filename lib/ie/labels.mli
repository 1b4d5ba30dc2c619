(** CoNLL entity types in BIO encoding — the nine labels of §5.1 and the
    validity rules of Appendix 9.3. *)

type entity = Per | Org | Loc | Misc
type t = O | B of entity | I of entity

val all : t array
(** The nine labels in a fixed order: O, B-PER, I-PER, B-ORG, I-ORG, B-LOC,
    I-LOC, B-MISC, I-MISC. *)

val to_string : t -> string
(** "O", "B-PER", "I-LOC", ... *)

val of_string : string -> t
(** Raises [Invalid_argument] on unknown labels. *)

val value : t -> Relational.Value.t
(** The label as a cell value, one shared interned [Value.Text] box per
    label — what the sampler writes into TOKEN.LABEL on an accepted flip
    without allocating text on the per-sample path (lint rule R7). *)

val domain : Factorgraph.Domain.t
(** The label set as a factor-graph domain, in {!all} order. *)

val index : t -> int
(** Position in {!all} (and so in {!domain}); total and branch-only, so
    scorers use it to index their per-label weight tables. *)

val of_index : int -> t
(** Inverse of {!index}; raises [Invalid_argument] outside [0, 9). *)

val valid_transition : prev:t option -> t -> bool
(** BIO validity: I-T may only follow B-T or I-T; [prev = None] means
    sequence (or document) start. *)

val segments : t array -> (int * int * entity) list
(** Maximal mentions as [(start, stop_exclusive, entity)], reading B/I runs
    left to right; invalid I labels are treated as B (the usual lenient
    decoding). *)
