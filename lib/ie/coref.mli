(** Entity resolution (coreference) — the second application of Figure 1.

    Mentions live in a MENTION relation (MENTION_ID, STRING, CLUSTER); the
    hidden structure is the clustering, encoded as the CLUSTER field of each
    row. The model scores pairs of mentions in the same cluster by string
    affinity, so worlds with cohesive clusters score higher; cluster moves
    and split/merge jumps change structure during inference — the dynamic
    graphical model the paper's representation allows.

    Proposals preserve the transitivity constraint by construction (§3.4),
    so no cubic deterministic factors are needed. *)

type t

val table_name : string

val load : Relational.Database.t -> strings:string array -> Core.World.t * t
(** Builds the MENTION table (every mention starts in its own cluster) and
    the model around it. *)

val cluster_of : t -> int -> int

val affinity : t -> int -> int -> float
(** Pairwise log-affinity: positive for similar strings, negative for
    dissimilar (exact match > shared-token match > mismatch). *)

val move_proposal : t -> Core.World.t Mcmc.Proposal.t
(** Reassign one mention to an existing cluster or a fresh singleton;
    reversible with an exact proposal ratio. *)

val split_merge_proposal : t -> Core.World.t Mcmc.Proposal.t
(** The paper's split-merge jump: pick two mentions; same cluster → random
    binary split separating them; different clusters → merge. The proposal
    ratio is ±(|A∪B|−2)·log 2 (see the derivation in the implementation). *)

val set_cluster : t -> mention:int -> cluster:int -> unit
(** Low-level: move one mention, writing through to the database. *)
