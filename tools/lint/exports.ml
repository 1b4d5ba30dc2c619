(* Rule R11 (unused-export): a [val] declared in lib/**/*.mli that no
   implementation outside test/ references — not another module, not its
   own module, not bin/, bench/, examples/ or tools/.

   References are matched the way Callgraph resolves calls: a qualified
   path counts by its last two segments ([Serve.Daemon.step] and
   [Daemon.step] both reference the export [Daemon.step]), and a bare name
   counts as [M.name] for every module [M] it is nested in, starting from
   the file's own module. Two modules sharing a name share keys, so an
   ambiguous reference marks every candidate used. A module that is
   opened, included, aliased, packed or passed to a functor anywhere in
   the scanned implementations counts as referencing all of its exports:
   the bare names such code uses cannot be traced to one module without
   a typing pass. A use of a name inside a binding of that same name
   (recursion) does not count. *)

open Ppxlib

module SS = Set.Make (String)

type export = {
  e_file : string;  (** the .mli, relative to the scan root *)
  e_loc : location;
  e_mods : string list;  (** enclosing modules, e.g. [["Codec"; "W"]] *)
  e_name : string;
}

let fq e = String.concat "." (e.e_mods @ [ e.e_name ])

(* Every [val] of a lib/ interface, plus one nested [module X : sig ... end]
   level (the [Codec.W]-style submodules Callgraph also indexes). *)
let exports_of_sig rel sg =
  let rec items mods depth sg =
    List.concat_map
      (fun item ->
        match item.psig_desc with
        | Psig_value vd ->
          [ { e_file = rel;
              e_loc = vd.pval_loc;
              e_mods = mods;
              e_name = vd.pval_name.txt;
            } ]
        | Psig_module
            { pmd_name = { txt = Some m; _ }; pmd_type = { pmty_desc = Pmty_signature s; _ }; _ }
          when depth < 1 ->
          items (mods @ [ m ]) (depth + 1) s
        | _ -> [])
      sg
  in
  items [ Callgraph.module_of_file rel ] 0 sg

(* Reference keys (Callgraph.suffix2 of each path) and wholly opened
   module names found in one implementation. *)
let collect_refs ~keys ~opened (rel, str) =
  let add path = Option.iter (fun k -> keys := SS.add k !keys) (Callgraph.suffix2 path) in
  let nesting = ref [ Callgraph.module_of_file rel ] in
  let enclosing = ref SS.empty in
  let it =
    object
      inherit Ast_traverse.iter as super

      method! module_binding mb =
        match mb.pmb_name.txt with
        | Some m ->
          let saved = !nesting in
          nesting := saved @ [ m ];
          super#module_binding mb;
          nesting := saved
        | None -> super#module_binding mb

      method! value_binding vb =
        let saved = !enclosing in
        (match vb.pvb_pat.ppat_desc with
        | Ppat_var { txt; _ } -> enclosing := SS.add txt saved
        | _ -> ());
        super#value_binding vb;
        enclosing := saved

      method! module_expr me =
        (match me.pmod_desc with
        | Pmod_ident { txt; _ } -> (
          match Callgraph.last (Callgraph.flatten_longident txt) with
          | Some m -> opened := SS.add m !opened
          | None -> ())
        | _ -> ());
        super#module_expr me

      method! expression e =
        (match e.pexp_desc with
        | Pexp_ident { txt; _ } -> (
          match Callgraph.flatten_longident txt with
          | [ name ] when not (SS.mem name !enclosing) ->
            (* every enclosing module of the use site may own the name *)
            List.iter (fun m -> add [ m; name ]) !nesting
          | [ _ ] | [] -> ()
          | path -> add path)
        | _ -> ());
        super#expression e
    end
  in
  it#structure str

(* [impls] are the parsed implementations outside test/, [sigs] the
   parsed lib/ interfaces; returns the exports nothing references. *)
let unused ~impls ~sigs =
  let keys = ref SS.empty and opened = ref SS.empty in
  List.iter (collect_refs ~keys ~opened) impls;
  List.concat_map (fun (rel, sg) -> exports_of_sig rel sg) sigs
  |> List.filter (fun e ->
         let referenced =
           Option.fold ~none:false
             ~some:(fun k -> SS.mem k !keys)
             (Callgraph.suffix2 (e.e_mods @ [ e.e_name ]))
         in
         not (referenced || List.exists (fun m -> SS.mem m !opened) e.e_mods))
