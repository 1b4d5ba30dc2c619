(** The TOKEN relation of §5.1:
    (TOK_ID, DOC_ID, POS, STRING, LABEL, TRUTH), TOK_ID the primary key.

    LABEL is the uncertain field — every row starts at "O", exactly as the
    paper initializes — and TRUTH carries the ground-truth annotation used
    for training and loss measurement. *)

val table_name : string

val load :
  ?storage:[ `Boxed | `Columnar ] -> Relational.Database.t -> Corpus.doc list ->
  Relational.Table.t
(** Creates and fills TOKEN; token ids are assigned densely from 0 in
    document order, so [tok_id] doubles as the global position. The
    default backend is the compact columnar one (ints + interned
    strings, see {!Relational.Table.create_columnar}) — a handful of
    words per token instead of a boxed row, which is what lets the
    1M–10M-token corpora of Fig 4a fit; [`Boxed] keeps the classic bag
    storage (the bench's memory comparison uses both). *)

val field_of_tok : int -> Core.Field.t
(** The LABEL field of a given token id. *)
