(** The repository's one JSON reader and writer.

    [lib/obs] depends on nothing but [unix], so it carries its own small
    JSON codec instead of pulling in a serialization library. The
    emitters below render snapshots, trace events, bench outputs and the
    daemon's wire frames ([Serve.Protocol]); {!parse} reads wire frames
    and the bench gate's [BENCH_*.json] documents. [tools/lint] keeps
    its own [json_escape] because the linter links none of the libraries
    it scans. *)

(** {1 Emission} *)

val escape : string -> string
(** [escape s] is [s] with the JSON string escapes applied (quotes,
    backslash, control characters). The result is {e not} quoted. *)

val str : string -> string
(** [str s] is the quoted, escaped JSON string literal for [s]. *)

val int : int -> string
(** [int n] is the JSON number literal for [n]. *)

val float : float -> string
(** [float x] is a JSON number literal for [x], printed as [%.17g] so it
    reads back bit-identically. Non-finite values (which JSON cannot
    represent) are emitted as [null]. *)

val obj : (string * string) list -> string
(** [obj fields] is a JSON object [{"k": v, ...}]; the values must already
    be rendered JSON fragments. *)

val arr : string list -> string
(** [arr items] is a JSON array of already-rendered fragments. *)

(** {1 Values} *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list  (** fields in document order *)

val to_string : t -> string
(** [to_string v] renders [v] with the emitters above, without
    whitespace. [parse (to_string v) = v] for every [v] whose numbers are
    finite. *)

val field : t -> string -> t option
(** [field v k] is the value of the first field named [k] when [v] is an
    object, [None] otherwise. *)

(** {1 Parsing} *)

exception Parse_error of string
(** The only exception {!parse} raises; the message names what was
    malformed and, where it helps, the byte offset. *)

val parse : string -> t
(** [parse s] reads exactly one JSON value, with optional surrounding
    whitespace, following RFC 8259's grammar for numbers and escapes:
    no leading [+], leading zeros, bare [.5], or numbers that overflow to
    infinity; [\u] takes exactly four hex digits, and a surrogate pair
    decodes to one UTF-8 code point while a lone surrogate is an error.
    Raises [Parse_error] on anything else, including trailing bytes. *)
