(** Deterministic fault injection for supervision tests.

    A failpoint is a named site in the code (e.g. ["pool.sample"]) that
    calls {!hit} with a monotone index. When armed for that name and
    index, the hit raises {!Injected} — simulating a worker crash at an
    exact, reproducible point in the sample stream, which is what lets
    the kill-and-resume tests assert bit-identical marginals.

    Arming is one-shot by default: after firing [times] times the
    failpoint disarms itself, so a chain resumed from a checkpoint does
    not re-crash at the same deterministic index forever.

    Disarmed hits are a single mutex-free load — safe to leave in
    production paths. *)

exception Injected of { name : string; index : int }

val arm : ?times:int -> name:string -> at:int -> unit -> unit
(** Arm the failpoint [name] to fire when [hit name ~index:at] is
    reached, [times] times (default 1) before disarming. Replaces any
    previous arming. Raises [Invalid_argument] if [times < 1] or
    [at < 0]. *)

(* pdb_lint: allow R11 — test hook: resets the injected fault between test cases; production arms once per process *)
val disarm : unit -> unit

(* pdb_lint: allow R11 — test hook: reads the armed fault state, which no public call reports *)
val armed : unit -> (string * int) option
(** The currently armed [(name, at)], if any. *)

val hit : string -> index:int -> unit
(** Raise {!Injected} iff armed for this [name] and [index]. *)

val arm_from_env : unit -> unit
(** Arm from [PDB_FAILPOINT="name@index"] (or ["name@index xN"] — an
    [xN] suffix sets [times]) when the variable is set and non-empty; do
    nothing otherwise. Raises [Invalid_argument] on a malformed value. *)
