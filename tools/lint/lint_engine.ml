(* pdb_lint rule engine: parses every .ml/.mli under the scanned roots
   into ppxlib's Parsetree and runs syntactic invariant checks over it.

   The rules encode the review invariants that keep the sampler/view
   stack honest (see docs/STATIC_ANALYSIS.md for the catalogue):

     R1 no-poly-compare   polymorphic =/<>/compare/Hashtbl.hash/Hashtbl.create
                          in the row/key hot paths (lib/relational, lib/mcmc,
                          lib/serve, lib/checkpoint)
     R2 clock-discipline  Unix.gettimeofday / Sys.time outside lib/obs/timer.ml
     R3 no-naked-print    stdout/stderr printing from lib/ (must go through
                          Obs.Trace or return strings)
     R4 no-swallowed-exn  try ... with _ -> e handlers that neither re-raise
                          nor name the exception they expect
     R5 no-obj-magic      any use of Obj.*
     R6 metrics-catalogue metric/trace names in code and docs/OBSERVABILITY.md
                          must agree in both directions (names and kinds)
     R7 no-hot-text-alloc Value.Text construction in per-sample hot paths
                          (decode/proposal/fan-out files and lib/serve,
                          lib/mcmc) — interned text must flow through
                          Intern.value's shared boxes; in the hot-path
                          files also text built by Printf.*sprintf, ^ or
                          Templates.*_feature outside an error argument
     R8 deterministic-serialization
                          no value derived from unordered Hashtbl iteration
                          order may reach a serialization sink (interprocedural;
                          see Callgraph/Effects)
     R9 rng-discipline    Random.* outside lib/prng/prng.ml (Mcmc.Rng's engine)
     R10 ambient-env      Sys.getenv/Unix.getenv/Sys.argv outside bin/ and the
                          failpoint shim
     R11 unused-export    a val in lib/**/*.mli that no implementation outside
                          test/ references (see Exports)
     R12 one-sample-step  View.create/update/release in lib/ outside
                          lib/core/view_set.ml

   R1–R7 and R12 are per-expression and syntactic. R8–R10 run as a second,
   interprocedural phase: Callgraph collects module-qualified decls over
   every parsed implementation, Effects computes per-function effect
   summaries to a fixpoint and taint-checks flows into serialization
   sinks; this file merges those findings (allowlist comments apply the
   same way) and renders the --summaries table. R11 runs last, over the
   parsed lib/ interfaces against every implementation outside test/.

   Everything here is syntactic — no typing pass — so R1's =/<> check
   uses an immediacy heuristic: a comparison is exempt when either
   operand is an int/char literal or a nullary constructor (true, None,
   [], a 0-ary variant), all of which are unboxed immediates for which
   polymorphic equality is exact and allocation-free. Anything else
   (two variables, calls, floats, strings) must use an explicit
   comparator or carry an allowlist comment. *)

open Ppxlib

(* ------------------------------------------------------------------ *)
(* Rules                                                              *)
(* ------------------------------------------------------------------ *)

type rule = {
  id : string;  (** machine-readable, "R1".."R12" *)
  rname : string;  (** kebab-case name, accepted in allowlist comments *)
  hint : string;  (** one-line fix hint, shown with every violation *)
  blurb : string;  (** one-line rationale for --list-rules *)
}

let rules =
  [ { id = "R1";
      rname = "no-poly-compare";
      hint =
        "use Value.compare/Row.equal/String.equal/Int.equal (or a Hashtbl.Make \
         functor with a keyed hash) instead of the polymorphic primitive";
      blurb =
        "polymorphic =/<>/compare/Hashtbl.hash silently diverge from Value.compare \
         semantics (Int 1 vs Float 1., NaN) in the Key_index and marginal-merge hot \
         path";
    };
    { id = "R2";
      rname = "clock-discipline";
      hint = "read time via Obs.Timer.now_ns (or Timer.start/elapsed_ns)";
      blurb =
        "Obs.Timer.now_ns is the one sanctioned clock: it clamps gettimeofday to be \
         never-decreasing (no CLOCK_MONOTONIC in this toolchain), so raw \
         Unix.gettimeofday/Sys.time readings can disagree with every recorded \
         duration and go backwards under NTP steps";
    };
    { id = "R3";
      rname = "no-naked-print";
      hint = "emit through Obs.Trace, or return the string to the caller";
      blurb =
        "library code writing to stdout/stderr bypasses the trace ring and corrupts \
         CLI/bench output; only bin/ and bench/ own their channels";
    };
    { id = "R4";
      rname = "no-swallowed-exn";
      hint =
        "match a named exception, add a `when` guard, or re-raise after handling";
      blurb =
        "a catch-all handler that does not re-raise hides worker crashes and codec \
         corruption (the PR 3 Job_failed bug class) as silently wrong marginals";
    };
    { id = "R5";
      rname = "no-obj-magic";
      hint = "redesign with a variant, GADT, or explicit codec";
      blurb = "Obj.* defeats the type system and the checkpoint codec's versioning";
    };
    { id = "R6";
      rname = "metrics-catalogue";
      hint =
        "add the metric/event to docs/OBSERVABILITY.md (name, kind, unit, meaning) \
         or delete the stale row";
      blurb =
        "docs/OBSERVABILITY.md is the contract dashboards read; uncatalogued or \
         stale names make every perf claim unverifiable";
    };
    { id = "R7";
      rname = "no-hot-text-alloc";
      hint =
        "return the pool's shared box via Relational.Intern.value (or a cached \
         Labels.value) instead of constructing Value.Text; resolve feature names \
         to Params ids once, when the model is built, instead of formatting them";
      blurb =
        "a Value.Text allocation or a formatted name in the per-sample \
         decode/proposal/fan-out path costs one string per row per sample — at \
         10M tokens that is the difference between interned columnar storage and \
         compiled weights paying off and the GC eating it";
    };
    { id = "R8";
      rname = "deterministic-serialization";
      hint =
        "extract the entries and List.sort them with an explicit comparator \
         before serializing (or serialize an order-insensitive reduction such \
         as length/cardinal)";
      blurb =
        "Hashtbl iteration order depends on insertion history, so serializing \
         it makes WAL replay and twin daemons diverge from the byte-identical \
         frames the resume guarantee promises";
    };
    { id = "R9";
      rname = "rng-discipline";
      hint =
        "thread an Mcmc.Rng.t (engine: lib/prng/prng.ml, the one module \
         allowed to touch Random.*) instead of the global generator";
      blurb =
        "randomness outside the seeded Mcmc.Rng stream breaks 'seed determines \
         the sample path' — the invariant checkpoint resume and every \
         reproducibility test rest on";
    };
    { id = "R10";
      rname = "ambient-env";
      hint =
        "read the environment variable or argv in bin/ (or the failpoint shim) \
         and pass the value down as an explicit argument";
      blurb =
        "library behavior must be a function of its arguments: ambient \
         Sys.getenv/Sys.argv reads make identical calls behave differently \
         across hosts and make the library untestable";
    };
    { id = "R11";
      rname = "unused-export";
      hint =
        "delete the val (and its body), or keep it with an allowlist comment \
         naming the test it serves: a reference implementation a test compares \
         against, or a hook into a fault or state no public call reaches";
      blurb =
        "an export only tests reach is code with no user: it costs review, \
         build and reading time while nothing in the system depends on it";
    };
    { id = "R12";
      rname = "one-sample-step";
      hint =
        "build, maintain and release views through Core.View_set \
         (bootstrap/restore/maintain/remove)";
      blurb =
        "Algorithm 1's step (build a view, maintain it from each delta, fold \
         its answer) has one home, Core.View_set; a second copy in lib/ means \
         every change to the step must land twice and the copies drift";
    }
  ]

let rule_by_id id = List.find_opt (fun r -> String.equal r.id id) rules

let canonical_rule_id s =
  match
    List.find_opt
      (fun r ->
        String.equal r.id s
        || String.equal r.rname s
        || String.equal (String.lowercase_ascii r.id) (String.lowercase_ascii s))
      rules
  with
  | Some r -> Some r.id
  | None -> None

(* ------------------------------------------------------------------ *)
(* Violations                                                         *)
(* ------------------------------------------------------------------ *)

type violation = {
  rule_id : string;
  rule_name : string;
  file : string;  (** path relative to the scan root, '/'-separated *)
  line : int;
  col : int;
  msg : string;
  vhint : string;
}

let violation ~rule ~file ~loc msg =
  let p = loc.Location.loc_start in
  { rule_id = rule.id;
    rule_name = rule.rname;
    file;
    line = p.Lexing.pos_lnum;
    col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
    msg;
    vhint = rule.hint;
  }

let compare_violation a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c else String.compare a.rule_id b.rule_id

(* ------------------------------------------------------------------ *)
(* Scoping                                                            *)
(* ------------------------------------------------------------------ *)

let scan_dirs = [ "lib"; "bin"; "bench"; "examples"; "test"; "tools" ]
let r1_dirs = [ "lib/relational"; "lib/mcmc"; "lib/serve"; "lib/checkpoint" ]

(* R7 scope: the files a Metropolis–Hastings sample actually flows
   through (columnar decode, view fan-out, proposals, world writes) plus
   all of lib/serve and lib/mcmc. Cold-path boundaries that legitimately
   box text once — Intern itself, Labels' cached table, the Token_table
   loader — stay out of scope. *)
let r7_files =
  [ "lib/relational/col_store.ml"; "lib/relational/view.ml"; "lib/relational/key_index.ml";
    "lib/ie/crf.ml"; "lib/ie/proposals.ml"; "lib/core/world.ml" ]

let r7_dirs = [ "lib/serve"; "lib/mcmc" ]

(* Text builders R7 also flags in [r7_files]: a formatted string, a
   concatenation, or a feature name. Their result is a fresh string, so
   on the per-sample path each call is an allocation plus, for a feature
   name, a hash lookup. *)
let hot_text_builder = function
  | [ "Printf"; f ] when String.ends_with ~suffix:"sprintf" f -> Some ("Printf." ^ f)
  | [ "^" ] -> Some "(^)"
  | path -> (
    match List.rev path with
    | f :: "Templates" :: _ when String.ends_with ~suffix:"_feature" f -> Some ("Templates." ^ f)
    | _ -> None)

(* Text built only to be raised — the argument of these — costs nothing
   on a path that does not fail, so R7 leaves it alone. *)
let raises_argument = function [ ("invalid_arg" | "failwith" | "raise") ] -> true | _ -> false
let r2_exempt_file = "lib/obs/timer.ml"

(* R12: the one lib/ file that may build, maintain or release a view. *)
let r12_home = "lib/core/view_set.ml"

let view_lifecycle_call path =
  match List.rev path with
  | ("create" | "update" | "release") :: "View" :: _ -> true
  | _ -> false
let default_doc = "docs/OBSERVABILITY.md"

let under dir path =
  let n = String.length dir in
  String.length path > n
  && String.equal (String.sub path 0 n) dir
  && Char.equal path.[n] '/'

let under_any dirs path = List.exists (fun d -> under d path) dirs

(* R6 collects producer sites from the shipping tree only: test/ interns
   throwaway names into private registries on purpose. *)
let r6_dirs = [ "lib"; "bin"; "bench" ]

(* ------------------------------------------------------------------ *)
(* File discovery                                                     *)
(* ------------------------------------------------------------------ *)

let is_source f =
  Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli"

let rec walk root rel acc =
  let abs = if String.equal rel "" then root else Filename.concat root rel in
  if (not (Sys.file_exists abs)) || not (Sys.is_directory abs) then acc
  else
    Array.fold_left
      (fun acc entry ->
        if String.length entry > 0 && Char.equal entry.[0] '.' then acc
        else if String.equal entry "_build" then acc
        else
          let rel' = if String.equal rel "" then entry else rel ^ "/" ^ entry in
          let abs' = Filename.concat root rel' in
          if Sys.is_directory abs' then walk root rel' acc
          else if is_source entry then rel' :: acc
          else acc)
      acc
      (Sys.readdir abs)

let discover root = List.sort String.compare (List.concat_map (fun d -> walk root d []) scan_dirs)

(* ------------------------------------------------------------------ *)
(* Allowlist comments                                                 *)
(* ------------------------------------------------------------------ *)

(* [(* pdb_lint: allow R4 — reason *)] silences the rule on the comment's
   line and the line directly below it; [allow-file] silences it for the
   whole file. Several rules may be listed, comma-separated. The reason
   text is free-form but conventionally follows an em-dash. *)

type allow = { a_rules : string list; a_line : int; a_file_scope : bool }

let allow_re =
  Str.regexp
    "pdb_lint:[ \t]*allow\\(-file\\)?[ \t]+\\([A-Za-z0-9_, \t-]+\\)"

let parse_allows src =
  let allows = ref [] in
  let lines = String.split_on_char '\n' src in
  List.iteri
    (fun i line ->
      match Str.search_forward allow_re line 0 with
      | exception Not_found -> ()
      | _ ->
        let file_scope =
          match Str.matched_group 1 line with
          | _ -> true
          | exception Not_found -> false
        in
        let spec = Str.matched_group 2 line in
        let ids =
          String.split_on_char ',' spec
          |> List.filter_map (fun tok ->
                 let tok = String.trim tok in
                 (* the free-form reason can follow the last id on the same
                    line; only tokens naming a known rule count *)
                 match String.index_opt tok ' ' with
                 | Some j -> canonical_rule_id (String.sub tok 0 j)
                 | None -> canonical_rule_id tok)
        in
        if ids <> [] then
          allows := { a_rules = ids; a_line = i + 1; a_file_scope = file_scope } :: !allows)
    lines;
  !allows

let allowed allows v =
  List.exists
    (fun a ->
      List.exists (String.equal v.rule_id) a.a_rules
      && (a.a_file_scope || Int.equal v.line a.a_line || Int.equal v.line (a.a_line + 1)))
    allows

(* ------------------------------------------------------------------ *)
(* R6 data collection                                                 *)
(* ------------------------------------------------------------------ *)

type metric_site = {
  m_pattern : string;  (** metric name; '*' marks a dynamic fragment *)
  m_kind : string;  (** counter | gauge | histogram | event *)
  m_file : string;
  m_line : int;
}

(* A doc/catalogue entry: name may contain <placeholders>, normalized to '*'. *)
type doc_entry = { d_pattern : string; d_kind : string; d_line : int }

let normalize_doc_pattern s =
  (* `relop.<op>.rows` -> `relop.*.rows` *)
  Str.global_replace (Str.regexp "<[^>]*>") "*" s

let pattern_matches pat s =
  (* '*' in [pat] stands for one or more identifier characters; [s] must
     not itself contain '*' for a regex match to be meaningful. *)
  if String.equal pat s then true
  else if String.contains s '*' then false
  else
    let buf = Buffer.create (String.length pat + 16) in
    Buffer.add_string buf "^";
    String.iter
      (fun c ->
        if Char.equal c '*' then Buffer.add_string buf "[A-Za-z0-9_]+"
        else Buffer.add_string buf (Str.quote (String.make 1 c)))
      pat;
    Buffer.add_string buf "$";
    Str.string_match (Str.regexp (Buffer.contents buf)) s 0

let entries_match a b = pattern_matches a b || pattern_matches b a

(* Markdown side: every table whose header row is `| name | kind | ... |`
   catalogues metrics; `| name | args | ... |` catalogues trace events.
   Other tables (CLI flags, derived values) are ignored. *)
let parse_doc path =
  if not (Sys.file_exists path) then ([], [])
  else begin
    let ic = open_in_bin path in
    let src = Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
        really_input_string ic (in_channel_length ic))
    in
    let metrics = ref [] and events = ref [] in
    let mode = ref `None in
    let cells line =
      String.split_on_char '|' line |> List.map String.trim
      |> List.filter (fun c -> not (String.equal c ""))
    in
    let strip_ticks s =
      let s = String.trim s in
      if String.length s >= 2 && Char.equal s.[0] '`' && Char.equal s.[String.length s - 1] '`'
      then String.sub s 1 (String.length s - 2)
      else s
    in
    List.iteri
      (fun i line ->
        let ln = i + 1 in
        let t = String.trim line in
        if String.length t > 0 && Char.equal t.[0] '|' then begin
          match cells t with
          | "name" :: "kind" :: _ -> mode := `Metrics
          | "name" :: "args" :: _ -> mode := `Events
          | "name" :: _ -> mode := `None (* e.g. the derived-values table *)
          | first :: rest when String.length first >= 3 && String.equal (String.sub first 0 3) "---"
            -> ignore rest (* separator row: keep current mode *)
          | row -> (
            match !mode, row with
            | `Metrics, name :: kind :: _ ->
              metrics :=
                { d_pattern = normalize_doc_pattern (strip_ticks name);
                  d_kind = String.lowercase_ascii kind;
                  d_line = ln;
                }
                :: !metrics
            | `Events, name :: _ ->
              events :=
                { d_pattern = normalize_doc_pattern (strip_ticks name); d_kind = "event"; d_line = ln }
                :: !events
            | _ -> ())
        end
        else if String.length t > 0 && not (Char.equal t.[0] '|') then
          (* any non-table line ends the current table *)
          mode := `None)
      (String.split_on_char '\n' src);
    (List.rev !metrics, List.rev !events)
  end

(* ------------------------------------------------------------------ *)
(* AST checks (R1–R5 + R6 collection)                                 *)
(* ------------------------------------------------------------------ *)

let flatten_longident l =
  try Longident.flatten_exn l with Invalid_argument _ -> []

(* Operands for which polymorphic =/<> is exact and allocation-free.
   Deliberately narrow: the empty list and 0-ary polymorphic variants are
   NOT exempt even though comparing them is O(1) today — [xs = []] and
   [s = `L] silently become deep structural compares the moment the
   value's type is generalized (a list of boxed rows, a variant that
   grows a payload), so the hot-path dirs must pattern-match them
   instead. Nullary nominal constructors other than the built-ins stay
   exempt: the type checker pins their type, and a payload added later
   changes the constructor's arity, which is a compile error at the
   compare site rather than a silent deep compare. *)
let rec immediate_operand e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_integer _ | Pconst_char _) -> true
  | Pexp_construct ({ txt; _ }, None) -> (
    match flatten_longident txt with
    | [ "[]" ] -> false (* match on the list shape instead *)
    | _ -> true (* true/false/None/() and 0-ary nominal variants *))
  | Pexp_variant (_, None) -> false (* match on the polymorphic tag instead *)
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> immediate_operand e
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, [ (Nolabel, _) ]) -> (
    (* arity/cardinality reads are ints by construction *)
    match flatten_longident txt with
    | [ _; "length" ] | [ "length" ] | [ _; "cardinal" ] | [ _; "arity" ] -> true
    | _ -> false)
  | _ -> false

(* Does an exception-handler body (or any subexpression of it) re-raise? *)
let body_raises body =
  let found = ref false in
  let it =
    object
      inherit Ast_traverse.iter as super

      method! expression e =
        (match e.pexp_desc with
        | Pexp_ident { txt; _ } -> (
          match flatten_longident txt with
          | [ "raise" ] | [ "raise_notrace" ] | [ "failwith" ] | [ "invalid_arg" ]
          | [ "exit" ]
          | [ "Printexc"; "raise_with_backtrace" ]
          | [ "Stdlib"; "raise" ] | [ "Stdlib"; "raise_notrace" ]
          | [ "Stdlib"; "failwith" ] | [ "Stdlib"; "invalid_arg" ] ->
            found := true
          | _ -> ())
        | Pexp_assert _ -> found := true
        | _ -> ());
        super#expression e
    end
  in
  it#expression body;
  !found

let rec catch_all_pattern p =
  match p.ppat_desc with
  | Ppat_any | Ppat_var _ -> true
  | Ppat_alias (p, _) | Ppat_constraint (p, _) | Ppat_open (_, p) -> catch_all_pattern p
  | Ppat_or (a, b) -> catch_all_pattern a || catch_all_pattern b
  | _ -> false

(* The nested exception pattern of a [match ... with exception p -> ...] case,
   if any. *)
let rec exception_subpattern p =
  match p.ppat_desc with
  | Ppat_exception inner -> Some inner
  | Ppat_alias (p, _) | Ppat_constraint (p, _) | Ppat_open (_, p) -> exception_subpattern p
  | Ppat_or (a, b) -> (
    match exception_subpattern a with Some x -> Some x | None -> exception_subpattern b)
  | _ -> None

(* A sprintf format string as a doc-side wildcard pattern: every %
   conversion (with its flags/width) becomes '*', '%%' stays a literal
   percent — [Printf.sprintf "relop.%s.rows" op] matches the catalogued
   [relop.<op>.rows]. *)
let wildcard_of_format fmt =
  let n = String.length fmt in
  let b = Buffer.create n in
  let is_letter c =
    (Char.compare 'a' c <= 0 && Char.compare c 'z' <= 0)
    || (Char.compare 'A' c <= 0 && Char.compare c 'Z' <= 0)
  in
  let rec go i =
    if i < n then
      match fmt.[i] with
      | '%' when i + 1 < n && Char.equal fmt.[i + 1] '%' ->
        Buffer.add_char b '%';
        go (i + 2)
      | '%' ->
        let j = ref (i + 1) in
        while !j < n && not (is_letter fmt.[!j]) do
          incr j
        done;
        Buffer.add_char b '*';
        go (!j + 1)
      | c ->
        Buffer.add_char b c;
        go (i + 1)
  in
  go 0;
  Buffer.contents b

(* Best-effort static rendering of a metric-name argument: string literals
   keep their fragments through [^]-concatenation and [Printf.sprintf]
   formats (conversions become '*'); anything else dynamic is a bare '*'. *)
let rec name_pattern_of_expr e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_string (s, _, _)) -> s
  | Pexp_apply
      ( { pexp_desc = Pexp_ident { txt = Lident "^"; _ }; _ },
        [ (Nolabel, a); (Nolabel, b) ] ) ->
    name_pattern_of_expr a ^ name_pattern_of_expr b
  | Pexp_apply
      ( { pexp_desc = Pexp_ident { txt; _ }; _ },
        (Nolabel, { pexp_desc = Pexp_constant (Pconst_string (fmt, _, _)); _ }) :: _ )
    when (match flatten_longident txt with
         | [ "Printf"; "sprintf" ] | [ "sprintf" ] | [ "Format"; "sprintf" ] -> true
         | _ -> false) ->
    wildcard_of_format fmt
  | Pexp_constraint (e, _) -> name_pattern_of_expr e
  | _ -> "*"

let rule_exn id = match rule_by_id id with Some r -> r | None -> assert false

type file_report = {
  fr_violations : violation list;
  fr_metrics : metric_site list;  (** R6 producer sites found in this file *)
}

(* Top-level [let compare]/[let equal] definitions make bare [compare]
   references module-local explicit comparators, not Stdlib.compare. *)
let defines_toplevel_compare str =
  List.exists
    (fun si ->
      match si.pstr_desc with
      | Pstr_value (_, vbs) ->
        List.exists
          (fun vb ->
            match vb.pvb_pat.ppat_desc with
            | Ppat_var { txt = "compare"; _ } -> true
            | _ -> false)
          vbs
      | _ -> false)
    str

let check_structure ~rel str =
  let in_r1 = under_any r1_dirs rel in
  let r7_text_on = List.exists (fun f -> String.equal f rel) r7_files in
  let r7_on = r7_text_on || under_any r7_dirs rel in
  let r2_on = not (String.equal rel r2_exempt_file) in
  let r3_on = under "lib" rel || under "tools" rel in
  let r12_on = under "lib" rel && not (String.equal rel r12_home) in
  let r6_on = under_any r6_dirs rel in
  let local_compare = defines_toplevel_compare str in
  let violations = ref [] and metrics = ref [] in
  let add rule loc msg = violations := violation ~rule ~file:rel ~loc msg :: !violations in
  (* idents already reported (or cleared) by the enclosing apply check *)
  let handled_eq : (int * int, unit) Hashtbl.t = Hashtbl.create 16 in
  let loc_key loc = (loc.Location.loc_start.Lexing.pos_lnum, loc.Location.loc_start.Lexing.pos_cnum) in
  (* > 0 while visiting the argument of invalid_arg/failwith/raise *)
  let raising = ref 0 in
  let record_metric kind loc args =
    if r6_on then
      match List.find_opt (fun (l, _) -> match l with Nolabel -> true | _ -> false) args with
      | Some (_, name_e) ->
        metrics :=
          { m_pattern = name_pattern_of_expr name_e;
            m_kind = kind;
            m_file = rel;
            m_line = loc.Location.loc_start.Lexing.pos_lnum;
          }
          :: !metrics
      | None -> ()
  in
  let it =
    object
      inherit Ast_traverse.iter as super

      method! expression e =
        (match e.pexp_desc with
        | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Lident (("=" | "<>") as op); loc = oploc }; _ },
                      [ (Nolabel, a); (Nolabel, b) ]) ->
          Hashtbl.replace handled_eq (loc_key oploc) ();
          if in_r1 && (not (immediate_operand a)) && not (immediate_operand b) then
            add (rule_exn "R1") e.pexp_loc
              (Printf.sprintf
                 "polymorphic `%s` on operands not provably immediate" op)
        | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
          match flatten_longident txt with
          | [ "Obs"; "Metrics"; ("counter" | "gauge" | "histogram" as k) ]
          | [ "Metrics"; ("counter" | "gauge" | "histogram" as k) ] ->
            record_metric k e.pexp_loc args
          | [ "Obs"; "Trace"; "emit" ] | [ "Trace"; "emit" ] ->
            record_metric "event" e.pexp_loc args
          | _ -> ())
        | Pexp_construct ({ txt = Lident "Text" | Ldot (_, "Text"); _ }, Some _)
          when r7_on ->
          (* Patterns (Ppat_construct) are untouched: destructuring a
             Text is free, only building one allocates. *)
          add (rule_exn "R7") e.pexp_loc
            "Value.Text constructed in a per-sample hot path"
        | Pexp_try (_, cases) ->
          List.iter
            (fun c ->
              if
                catch_all_pattern c.pc_lhs
                && Option.is_none c.pc_guard
                && not (body_raises c.pc_rhs)
              then
                add (rule_exn "R4") c.pc_lhs.ppat_loc
                  "catch-all exception handler neither re-raises nor names an exception")
            cases
        | Pexp_match (_, cases) ->
          List.iter
            (fun c ->
              match exception_subpattern c.pc_lhs with
              | Some inner
                when catch_all_pattern inner
                     && Option.is_none c.pc_guard
                     && not (body_raises c.pc_rhs) ->
                add (rule_exn "R4") c.pc_lhs.ppat_loc
                  "catch-all `exception` case neither re-raises nor names an exception"
              | _ -> ())
            cases
        | Pexp_ident { txt; loc } -> (
          match flatten_longident txt with
          | [ ("=" | "<>") as op ] ->
            if in_r1 && not (Hashtbl.mem handled_eq (loc_key loc)) then
              add (rule_exn "R1") loc
                (Printf.sprintf "polymorphic `(%s)` passed as a first-class comparator" op)
          | [ "compare" ] when in_r1 && not local_compare ->
            add (rule_exn "R1") loc "bare `compare` is Stdlib's polymorphic compare"
          | [ "Stdlib"; "compare" ] when in_r1 ->
            add (rule_exn "R1") loc "`Stdlib.compare` is polymorphic"
          | [ "Hashtbl"; ("hash" | "seeded_hash") ] when in_r1 ->
            add (rule_exn "R1") loc "`Hashtbl.hash` is the polymorphic structural hash"
          | [ "Hashtbl"; "create" ] when in_r1 ->
            add (rule_exn "R1") loc
              "polymorphic `Hashtbl.create` (keys hashed with Hashtbl.hash)"
          | [ "Unix"; "gettimeofday" ] when r2_on ->
            add (rule_exn "R2") loc "raw `Unix.gettimeofday` outside Obs.Timer"
          | [ "Sys"; "time" ] when r2_on -> add (rule_exn "R2") loc "raw `Sys.time` outside Obs.Timer"
          | [ "Printf"; ("printf" | "eprintf") ]
          | [ ("print_endline" | "print_string" | "print_newline" | "prerr_endline"
              | "prerr_string" | "prerr_newline") ]
            when r3_on ->
            add (rule_exn "R3") loc "library code printing directly to stdout/stderr"
          | "Obj" :: _ :: _ -> add (rule_exn "R5") loc "use of Obj.*"
          | path when r12_on && view_lifecycle_call path ->
            add (rule_exn "R12") loc
              (Printf.sprintf "`%s` outside Core.View_set" (String.concat "." path))
          | _ -> ())
        | _ -> ());
        let callee =
          match e.pexp_desc with
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> flatten_longident txt
          | _ -> []
        in
        (if r7_text_on && Int.equal !raising 0 then
           match hot_text_builder callee with
           | Some what ->
             add (rule_exn "R7") e.pexp_loc
               (Printf.sprintf "%s builds text in a per-sample hot path" what)
           | None -> ());
        if raises_argument callee then begin
          incr raising;
          super#expression e;
          decr raising
        end
        else super#expression e
    end
  in
  it#structure str;
  { fr_violations = !violations; fr_metrics = !metrics }

(* ------------------------------------------------------------------ *)
(* Per-file driver                                                    *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let parse_rule =
  { id = "P0";
    rname = "parse-error";
    hint = "the file must parse with the repo's own compiler front-end";
    blurb = "unparseable sources cannot be linted";
  }

(* One parsed file: its allowlist, its per-expression report, and the
   parse tree the later phases consume (implementations for R8–R11,
   interfaces for R11). *)
type parsed_file = {
  p_rel : string;
  p_allows : allow list;
  p_str : structure option;
  p_sig : signature option;
  p_report : file_report;
}

let lint_file ~root rel =
  let abs = Filename.concat root rel in
  let src = read_file abs in
  let allows = parse_allows src in
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf rel;
  let str, sg, report =
    if Filename.check_suffix rel ".mli" then (
      (* interfaces carry no expressions; R11 reads their vals *)
      match Parse.interface lexbuf with
      | sg -> (None, Some sg, { fr_violations = []; fr_metrics = [] })
      (* pdb_lint: allow R4 — any exception here means "does not parse"; surfaced as a P0 violation, nothing to re-raise *)
      | exception _ ->
        ( None,
          None,
          { fr_violations =
              [ violation ~rule:parse_rule ~file:rel ~loc:Location.none "interface does not parse" ];
            fr_metrics = [];
          } ))
    else
      match Parse.implementation lexbuf with
      | str -> (Some str, None, check_structure ~rel str)
      (* pdb_lint: allow R4 — any exception here means "does not parse"; surfaced as a P0 violation, nothing to re-raise *)
      | exception _ ->
        ( None,
          None,
          { fr_violations =
              [ violation ~rule:parse_rule ~file:rel ~loc:Location.none "implementation does not parse" ];
            fr_metrics = [];
          } )
  in
  { p_rel = rel;
    p_allows = allows;
    p_str = str;
    p_sig = sg;
    p_report =
      { report with
        fr_violations = List.filter (fun v -> not (allowed allows v)) report.fr_violations
      };
  }

(* ------------------------------------------------------------------ *)
(* R6: bidirectional catalogue diff                                   *)
(* ------------------------------------------------------------------ *)

let r6_diff ~doc_rel (doc_metrics, doc_events) code_sites =
  let r6 = rule_exn "R6" in
  let out = ref [] in
  let add_at file line msg =
    out :=
      { rule_id = r6.id; rule_name = r6.rname; file; line; col = 0; msg; vhint = r6.hint }
      :: !out
  in
  let code_metrics = List.filter (fun m -> not (String.equal m.m_kind "event")) code_sites in
  let code_events = List.filter (fun m -> String.equal m.m_kind "event") code_sites in
  (* code -> doc *)
  List.iter
    (fun m ->
      if String.equal m.m_pattern "*" then
        add_at m.m_file m.m_line
          "metric name is not statically analyzable (build it from literal fragments)"
      else
        match List.find_opt (fun d -> entries_match d.d_pattern m.m_pattern) doc_metrics with
        | None ->
          add_at m.m_file m.m_line
            (Printf.sprintf "metric `%s` (%s) is not catalogued in %s" m.m_pattern m.m_kind doc_rel)
        | Some d ->
          if not (String.equal d.d_kind m.m_kind) then
            add_at m.m_file m.m_line
              (Printf.sprintf "metric `%s` is registered as a %s but catalogued as a %s (%s:%d)"
                 m.m_pattern m.m_kind d.d_kind doc_rel d.d_line))
    code_metrics;
  List.iter
    (fun m ->
      if String.equal m.m_pattern "*" then
        add_at m.m_file m.m_line
          "trace event name is not statically analyzable (build it from literal fragments)"
      else if not (List.exists (fun d -> entries_match d.d_pattern m.m_pattern) doc_events) then
        add_at m.m_file m.m_line
          (Printf.sprintf "trace event `%s` is not catalogued in %s" m.m_pattern doc_rel))
    code_events;
  (* doc -> code *)
  List.iter
    (fun d ->
      if not (List.exists (fun m -> entries_match d.d_pattern m.m_pattern) code_metrics) then
        add_at doc_rel d.d_line
          (Printf.sprintf "catalogued metric `%s` is not registered anywhere in code" d.d_pattern))
    doc_metrics;
  List.iter
    (fun d ->
      if not (List.exists (fun m -> entries_match d.d_pattern m.m_pattern) code_events) then
        add_at doc_rel d.d_line
          (Printf.sprintf "catalogued trace event `%s` is not emitted anywhere in code" d.d_pattern))
    doc_events;
  !out

(* ------------------------------------------------------------------ *)
(* Whole-tree run                                                     *)
(* ------------------------------------------------------------------ *)

type run = {
  files_scanned : int;
  violations : violation list;
  summaries : string;  (** the rendered effect-summary table (--summaries) *)
}

let run ?(doc = default_doc) ~root () =
  let files = discover root in
  let parsed = List.map (fun rel -> lint_file ~root rel) files in
  let ast_violations = List.concat_map (fun p -> p.p_report.fr_violations) parsed in
  let sites = List.concat_map (fun p -> p.p_report.fr_metrics) parsed in
  let doc_path = Filename.concat root doc in
  let r6 = r6_diff ~doc_rel:doc (parse_doc doc_path) sites in
  (* Phase 2: interprocedural effect summaries + sink rules over every
     implementation that parsed. Findings honor the same allowlist
     comments as the per-expression rules. *)
  let impls =
    List.filter_map (fun p -> Option.map (fun s -> (p.p_rel, s)) p.p_str) parsed
  in
  let allows_by_file = Hashtbl.create (List.length parsed) in
  List.iter (fun p -> Hashtbl.replace allows_by_file p.p_rel p.p_allows) parsed;
  let not_allowed v =
    not (allowed (Option.value ~default:[] (Hashtbl.find_opt allows_by_file v.file)) v)
  in
  let eff, findings = Effects.analyze (Callgraph.build impls) in
  let inter =
    List.map
      (fun f ->
        let rule = rule_exn f.Effects.f_rule in
        { rule_id = rule.id;
          rule_name = rule.rname;
          file = f.Effects.f_file;
          line = f.Effects.f_line;
          col = f.Effects.f_col;
          msg = f.Effects.f_msg;
          vhint = rule.hint;
        })
      findings
  in
  (* R11: lib/ interface vals against every implementation outside test/ *)
  let unused =
    Exports.unused
      ~impls:(List.filter (fun (rel, _) -> not (under "test" rel)) impls)
      ~sigs:
        (List.filter_map
           (fun p -> if under "lib" p.p_rel then Option.map (fun s -> (p.p_rel, s)) p.p_sig else None)
           parsed)
    |> List.map (fun e ->
           violation ~rule:(rule_exn "R11") ~file:e.Exports.e_file ~loc:e.Exports.e_loc
             (Printf.sprintf "`%s` is exported but nothing outside test/ references it"
                (Exports.fq e)))
  in
  { files_scanned = List.length files;
    violations =
      List.sort_uniq compare_violation
        (ast_violations @ r6 @ List.filter not_allowed (inter @ unused));
    summaries = Effects.render_table eff;
  }

(* ------------------------------------------------------------------ *)
(* Reporters                                                          *)
(* ------------------------------------------------------------------ *)

let report_text oc run =
  List.iter
    (fun v ->
      Printf.fprintf oc "%s:%d:%d: [%s %s] %s\n  hint: %s\n" v.file v.line v.col v.rule_id
        v.rule_name v.msg v.vhint)
    run.violations;
  Printf.fprintf oc "pdb_lint: %d file(s) scanned, %d violation(s)\n" run.files_scanned
    (List.length run.violations)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let report_json oc run =
  Printf.fprintf oc "{\n  \"files_scanned\": %d,\n  \"violations\": [" run.files_scanned;
  List.iteri
    (fun i v ->
      Printf.fprintf oc "%s\n    {\"rule\": \"%s\", \"name\": \"%s\", \"file\": \"%s\", \"line\": %d, \"col\": %d, \"msg\": \"%s\", \"hint\": \"%s\"}"
        (if i > 0 then "," else "")
        v.rule_id v.rule_name (json_escape v.file) v.line v.col (json_escape v.msg)
        (json_escape v.vhint))
    run.violations;
  Printf.fprintf oc "\n  ],\n  \"violation_count\": %d\n}\n" (List.length run.violations)
