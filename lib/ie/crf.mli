(** The skip-chain CRF of §5.1 (Figure 3), scored lazily.

    Factor templates — emission, transition, label bias, and skip edges
    between identical capitalized strings in the same document — are never
    materialized as a factor graph. Instead the model keeps an in-memory
    mirror of the TOKEN relation and computes, on demand, the delta
    log-score of changing one token's label: exactly the quantity MH needs,
    in O(degree) time independent of database size (§5.3, Appendix 9.2).

    The model is compiled once, in {!create}: every weight it reads is a
    {!Factorgraph.Params} id, resolved per word type (emission, shape), per
    label (bias) and per label pair (transition), so a score is a handful
    of array reads — no feature name is formatted or hashed per proposal.
    Feature names coincide with {!Factorgraph.Templates}, so weights are
    interchangeable between the lazy and materialized representations (a
    property the test suite checks), and SampleRank's updates by name land
    on the ids the model reads. *)

type t

val create : ?skip_edges:bool -> params:Factorgraph.Params.t -> Core.World.t -> t
(** Reads the TOKEN table of the world's database, which must be columnar
    ({!Token_table.load}'s default and what a snapshot restores); raises
    [Invalid_argument] otherwise. [skip_edges] defaults to true (the
    full skip-chain model); false gives the linear-chain CRF.
    Interns every feature the model can read into [params] (at weight 0
    when unset). Skip edges join identical capitalized strings of one
    document; a group larger than 21 keeps skip factors among its first
    21 members only, so each member has at most 20 partners and every
    skip factor is seen from both of its ends. *)

val params : t -> Factorgraph.Params.t
val world : t -> Core.World.t
val has_skip_edges : t -> bool
val n_tokens : t -> int
val n_docs : t -> int
val token_string : t -> int -> string
val doc_of : t -> int -> int
(** The corpus doc id of a token position — an opaque tag (same id ⇔
    same document), {e not} an index: a CRF built over a shard keeps the
    original corpus ids, which are then not dense. *)

val doc_token_range : t -> int -> int * int
(** [(first, last_exclusive)] token positions of the document with dense
    index [d ∈ \[0, n_docs)] — the argument is the position in document
    order, not the {!doc_of} id. *)

val doc_index_at : t -> int -> int
(** The dense document index containing a token position (binary search
    over the ranges); inverse of {!doc_token_range} in the sense
    [fst (doc_token_range t (doc_index_at t p)) <= p]. *)

val label : t -> int -> Labels.t
val truth : t -> int -> Labels.t
val skip_partners : t -> int -> int array

val docs_containing : t -> string -> int list
(** Dense document indices (as accepted by {!doc_token_range}) in which
    the exact token string occurs, ascending; cached after first use. *)

val delta_log_score : t -> pos:int -> Labels.t -> float
(** log π(world with token [pos] relabelled) − log π(current world). *)

val delta_features : t -> pos:int -> Labels.t -> (string * float) list
(** Sparse φ(w′) − φ(w) over the touched factors (SampleRank's input). *)

val node_weight : t -> pos:int -> int -> float
(** [(emission + shape) + bias] at a position for a label index. *)

val transition_weight : t -> int -> int -> float
(** The transition weight between two label indices. *)

val delta_log_score_multi : t -> (int * Labels.t) list -> float
(** Delta log-score of a joint change to several positions (each position at
    most once), touching only the factors adjacent to the changed set —
    block proposals (e.g. whole-segment relabelling) need this. *)

val set_labels_multi : t -> (int * Labels.t) list -> unit
(** Apply a joint change, writing every modified field through to the
    database. *)

val set_label : t -> pos:int -> Labels.t -> unit
(** Updates the mirror and writes through to the database LABEL field. *)

val set_label_local : t -> pos:int -> Labels.t -> unit
(** Updates only the in-memory mirror — used during training, where the
    database does not need to follow the chain. *)

val accuracy : t -> float
(** Fraction of tokens whose current label equals the truth. *)

val clamp : t -> pos:int -> Labels.t -> unit
(** Pin a token's label as evidence (e.g. a human correction): the label is
    written through and the position stops being a random variable — every
    proposal in {!Proposals} skips it. *)

val is_clamped : t -> int -> bool
val unclamped_positions : t -> int array
(** Cached after first call; call {!clamp} only before sampling begins. *)

val default_params : unit -> Factorgraph.Params.t
(** Hand-constructed weights that mimic a trained model: lexicon-driven
    emissions (with genuine LOC/ORG ambiguity on city strings), BIO-aware
    transitions, an O bias, and positive same-label skip weights. Useful for
    benches that skip training. *)
