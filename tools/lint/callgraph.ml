(* Module-qualified call graph over the scanned tree, feeding the
   interprocedural effect analysis in Effects (rules R8–R10); Exports
   (R11) reuses its module naming and last-two-segment suffix match.

   Phase 1 of the two-phase analyzer: every parsed implementation
   contributes its top-level [let] bindings (plus one nested-module
   level, enough for the [Codec.W]-style writer submodules) as *decls*
   keyed by a module-qualified name derived from the file's basename —
   [lib/serve/daemon.ml] owns [Daemon.flush_client],
   [lib/checkpoint/codec.ml] owns [Codec.W.string]. Effects resolves the
   identifier paths it meets in decl bodies back to these decls; because
   dune wraps libraries, a cross-library call site spells the same decl
   with an extra prefix ([Serve.Daemon.flush_client]), so resolution
   falls back to a last-two-segment suffix match and, on ambiguity,
   returns every candidate — the analysis unions their effects, which
   errs conservative.

   The same pass records which module names denote *unordered*
   collections: [Hashtbl] itself, any [module M = Hashtbl.Make (...)]
   binding (locally visible as [M], globally as [File.M]), any module
   whose implementation [include]s [Hashtbl.Make] (e.g. Str_tbl), and
   aliases to either. Iterating one of these with [iter]/[fold]/[to_seq]
   is the order-dependence source R8 tracks to serialization sinks. *)

open Ppxlib

module SS = Set.Make (String)

type decl = {
  d_fq : string;  (** dotted module-qualified name, e.g. ["Daemon.flush_client"] *)
  d_path : string list;  (** the same name as segments *)
  d_file : string;  (** path relative to the scan root *)
  d_line : int;
  d_body : expression;
}

type t = {
  decls : decl array;
  by_fq : (string, int list) Hashtbl.t;
  by_suffix : (string, int list) Hashtbl.t;  (** last two segments, dotted *)
  by_file_name : (string, int list) Hashtbl.t;  (** "file:name", unqualified *)
  unordered_local : (string, SS.t) Hashtbl.t;  (** file -> locally bound names *)
  mutable unordered_global : SS.t;
      (** module names (and File.M dotted forms) unordered everywhere *)
}

let flatten_longident l =
  try Longident.flatten_exn l with Invalid_argument _ -> []

(* "lib/serve/daemon.ml" -> "Daemon" (the compiler's module name). *)
let module_of_file rel =
  let base = Filename.remove_extension (Filename.basename rel) in
  String.capitalize_ascii base

let rec last = function [] -> None | [ x ] -> Some x | _ :: tl -> last tl

let suffix2 path =
  match List.rev path with
  | b :: a :: _ -> Some (a ^ "." ^ b)
  | [ one ] -> Some one
  | [] -> None

(* Does a module expression denote a hash-table functor application
   ([Hashtbl.Make ...], possibly through constraints)? *)
let rec is_hashtbl_make me =
  match me.pmod_desc with
  | Pmod_apply (f, _) -> is_hashtbl_make f
  | Pmod_apply_unit f -> is_hashtbl_make f
  | Pmod_constraint (m, _) -> is_hashtbl_make m
  | Pmod_ident { txt; _ } -> (
    match flatten_longident txt with
    | [ "Hashtbl"; "Make" ] | [ "Hashtbl"; "MakeSeeded" ]
    | [ "Stdlib"; "Hashtbl"; "Make" ] | [ "Ephemeron"; _; "Make" ] ->
      true
    | _ -> false)
  | _ -> false

(* A raw [module M = Target] alias whose unorderedness depends on what
   [Target] turns out to be once every file is collected. *)
type alias = { al_file : string; al_name : string; al_target : string list }

let build parsed =
  let decls = ref [] in
  let unordered_local : (string, SS.t) Hashtbl.t = Hashtbl.create 64 in
  let unordered_global = ref SS.empty in
  let aliases = ref [] in
  let add_local file name =
    let cur = Option.value ~default:SS.empty (Hashtbl.find_opt unordered_local file) in
    Hashtbl.replace unordered_local file (SS.add name cur)
  in
  let collect_file (rel, str) =
    let qual = module_of_file rel in
    let rec collect_items prefix depth items =
      List.iter
        (fun item ->
          match item.pstr_desc with
          | Pstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                let line = vb.pvb_loc.loc_start.Lexing.pos_lnum in
                match vb.pvb_pat.ppat_desc with
                | Ppat_var { txt = name; _ } ->
                  let path = prefix @ [ name ] in
                  decls :=
                    { d_fq = String.concat "." path;
                      d_path = path;
                      d_file = rel;
                      d_line = line;
                      d_body = vb.pvb_expr;
                    }
                    :: !decls
                | _ ->
                  (* [let () = ...] and destructuring bindings still run
                     effects at module init; keep them walkable under a
                     synthetic name that cannot be called. *)
                  let path = prefix @ [ Printf.sprintf "(init:%d)" line ] in
                  decls :=
                    { d_fq = String.concat "." path;
                      d_path = path;
                      d_file = rel;
                      d_line = line;
                      d_body = vb.pvb_expr;
                    }
                    :: !decls)
              vbs
          | Pstr_eval (e, _) ->
            let line = item.pstr_loc.loc_start.Lexing.pos_lnum in
            let path = prefix @ [ Printf.sprintf "(init:%d)" line ] in
            decls :=
              { d_fq = String.concat "." path;
                d_path = path;
                d_file = rel;
                d_line = line;
                d_body = e;
              }
              :: !decls
          | Pstr_module { pmb_name = { txt = Some m; _ }; pmb_expr; _ } -> (
            if is_hashtbl_make pmb_expr then begin
              add_local rel m;
              unordered_global :=
                SS.add (String.concat "." (prefix @ [ m ])) !unordered_global
            end
            else
              match pmb_expr.pmod_desc with
              | Pmod_ident { txt; _ } ->
                aliases :=
                  { al_file = rel; al_name = m; al_target = flatten_longident txt }
                  :: !aliases
              | Pmod_structure s when depth < 1 ->
                collect_items (prefix @ [ m ]) (depth + 1) s
              | _ -> ())
          | Pstr_include { pincl_mod; _ } ->
            (* [include Hashtbl.Make (...)]: the file's own module becomes
               an unordered collection (Str_tbl-style). *)
            if is_hashtbl_make pincl_mod then
              unordered_global := SS.add (String.concat "." prefix) !unordered_global
          | _ -> ())
        items
    in
    collect_items [ qual ] 0 str
  in
  List.iter collect_file parsed;
  (* Chase [module M = Target] aliases: M is unordered when Target is
     Hashtbl, already-known unordered (by bare or dotted name), or a
     local unordered name of the same file. Iterate to close chains of
     aliases; the alias list is tiny so a quadratic fixpoint is fine. *)
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun { al_file; al_name; al_target } ->
        let locals =
          Option.value ~default:SS.empty (Hashtbl.find_opt unordered_local al_file)
        in
        if not (SS.mem al_name locals) then begin
          let target_unordered =
            match al_target with
            | [] -> false
            | segs ->
              List.exists (String.equal "Hashtbl") segs
              || SS.mem (String.concat "." segs) !unordered_global
              || (match last segs with
                 | Some m -> SS.mem m !unordered_global || SS.mem m locals
                 | None -> false)
          in
          if target_unordered then begin
            add_local al_file al_name;
            changed := true
          end
        end)
      !aliases
  done;
  (* The bare final segment of every global unordered name is also
     recognized (a call spells [Str_tbl.iter], not [Str_tbl.Str_tbl.iter]). *)
  unordered_global :=
    SS.fold
      (fun name acc ->
        match last (String.split_on_char '.' name) with
        | Some seg -> SS.add seg acc
        | None -> acc)
      !unordered_global !unordered_global;
  let decls = Array.of_list (List.rev !decls) in
  let by_fq = Hashtbl.create (Array.length decls) in
  let by_suffix = Hashtbl.create (Array.length decls) in
  let by_file_name = Hashtbl.create (Array.length decls) in
  let push tbl key i =
    Hashtbl.replace tbl key (i :: Option.value ~default:[] (Hashtbl.find_opt tbl key))
  in
  Array.iteri
    (fun i d ->
      push by_fq d.d_fq i;
      (match suffix2 d.d_path with Some s -> push by_suffix s i | None -> ());
      match last d.d_path with
      | Some name -> push by_file_name (d.d_file ^ ":" ^ name) i
      | None -> ())
    decls;
  { decls;
    by_fq;
    by_suffix;
    by_file_name;
    unordered_local;
    unordered_global = !unordered_global;
  }

let decls t = t.decls

(* Decl indices an identifier path may denote, seen from [file]:
   unqualified names bind within their own file; qualified paths match
   exactly first, then by their last two segments (the wrapped-library
   spelling). Multiple candidates are all returned — effect analysis
   unions them. *)
let resolve t ~file path =
  let find tbl key = Option.value ~default:[] (Hashtbl.find_opt tbl key) in
  match path with
  | [] -> []
  | [ name ] -> find t.by_file_name (file ^ ":" ^ name)
  | _ -> (
    match find t.by_fq (String.concat "." path) with
    | _ :: _ as exact -> exact
    | [] -> ( match suffix2 path with Some s -> find t.by_suffix s | None -> []))

(* Is [prefix] (an identifier path with the function name stripped) an
   unordered-collection module as seen from [file]? *)
let unordered_module t ~file prefix =
  match last prefix with
  | None -> false
  | Some m ->
    String.equal m "Hashtbl"
    || SS.mem m (Option.value ~default:SS.empty (Hashtbl.find_opt t.unordered_local file))
    || SS.mem m t.unordered_global
    || SS.mem (String.concat "." prefix) t.unordered_global
