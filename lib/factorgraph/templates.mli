(** Factor templates: unroll repeated factor structure onto a graph
    (Figure 1's plate notation). These materialized templates are used for
    small-graph validation and ablations; the IE library scores the same
    models lazily without materializing factors. *)

type chain = {
  graph : Graph.t;
  labels : Graph.var array; (** hidden label variable per token position *)
  assignment : Assignment.t;
}

val unroll_chain :
  ?skip_edges:bool ->
  params:Params.t ->
  label_domain:Domain.t ->
  tokens:string array ->
  unit ->
  chain
(** Builds the paper's NER model over one token sequence: emission factors
    (string ⊗ label), transition factors between neighbouring labels, bias
    factors per label, and — when [skip_edges] is true — skip factors
    between every pair of positions with identical token strings (the
    skip-chain CRF of Figure 3).

    Feature names follow ["emit:<string>:<label>"], ["shape:<shape>:<label>"],
    ["trans:<l1>:<l2>"], ["bias:<label>"], and ["skip:<same|diff>"], so
    weights learned here are interchangeable with the lazy {!Ie} scorer.
    Every factor's ids are resolved ({!resolve}, {!emission_ids},
    {!shape_ids}) while
    unrolling; the factor closures only read weights by id. *)

(** The chain model's feature ids for one label domain, interned into
    one parameter store. Arrays are indexed by domain index: [bias.(l)],
    [trans.((l * k) + l')] for [k] labels. Interning allocates zero
    weights for features the store has not seen, so a later {!Params.set}
    or SampleRank update by name lands on the id read here. *)
type ids = private {
  params : Params.t;
  label_names : string array;  (** domain values, by index *)
  bias : int array;
  trans : int array;
  skip_same : int;
  skip_diff : int;
}

val resolve : Params.t -> Domain.t -> ids
(** Interns the features that depend on labels alone: one bias per
    label, one transition per label pair, and the two skip features. *)

val emission_ids : ids -> string -> int array
(** The emission ids of one observed string, by label index. *)

val shape_ids : ids -> string -> int array
(** The shape ids of one observed string's {!word_shape}, by label index. *)

val emission_feature : string -> string -> string
val transition_feature : string -> string -> string
val bias_feature : string -> string
val skip_feature : same:bool -> string

val word_shape : string -> string
(** Collapsed orthographic shape: "Boston" ↦ "Xx", "IBM" ↦ "X", "3rd" ↦
    "dx", "said" ↦ "x". Lets emissions generalize beyond the lexicon. *)

val shape_feature : string -> string -> string
(** ["shape:<shape>:<label>"], fired alongside the lexical emission. *)
