(** Factor graphs G = ⟨V, Ψ⟩, built up one variable and factor at a time.

    Variables are integer ids with finite domains; factors are log-space
    potentials over a scope of variables (templates unroll them, see
    {!Templates}).

    Scores are log potentials, so the unnormalized log probability of a world
    is the sum of factor scores (Eq. 1 with ψ = exp(φ·θ) taken in log
    space). *)

type t
type var = int
type factor_id = int

val create : unit -> t

val add_variable : ?observed:bool -> t -> Domain.t -> var
val num_variables : t -> int
val domain : t -> var -> Domain.t
val is_observed : t -> var -> bool

val add_factor : t -> scope:var array -> (Assignment.t -> float) -> factor_id
(** [add_factor g ~scope score] registers a factor whose log potential
    [score a] may depend only on the values of [scope] in [a]. *)

val add_table_factor : t -> scope:var array -> float array -> factor_id
(** Log-potential table in row-major order over the scope's domains. *)

val factor_scope : t -> factor_id -> var array
val factors_of : t -> var -> factor_id list
val factor_score : t -> factor_id -> Assignment.t -> float

val new_assignment : t -> Assignment.t

val log_score : t -> Assignment.t -> float
(** Sum of all factor scores: log of the unnormalized world probability. *)

val delta_log_score : t -> Assignment.t -> (var * int) list -> float
(** [delta_log_score g a changes] is [log_score(a′) − log_score(a)] where
    [a′] applies [changes], computed by touching only the factors adjacent to
    changed variables (the MH efficiency of Appendix 9.2). [a] is left
    unchanged. *)

val touched_factors : t -> (var * int) list -> factor_id list
(** De-duplicated factors adjacent to any changed variable. *)
