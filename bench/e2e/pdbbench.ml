(* pdbbench — the repository benchmark that BENCHMARK.json describes.

   pdb_lint: allow-file R10 — a command-line entry point: it parses its
   own argv like bench/main.ml and the bin/ tools do.

   Usage:
     pdbbench --workload W [--seed N] [--seconds S] [--trace 0|1]
              [--out FILE] [--spans FILE] [--commit ID]
     pdbbench --smoke [--manifest BENCHMARK.json]
     pdbbench --manifest-json

   A run sets up workload W from --seed, runs its timed phase, checks
   the answers, prints every metric by name with its unit, and ends
   with one JSON line {"correct", "attempted", "failed", "metrics"}.
   --trace 1 runs the timed phase a second time with the library's Obs
   metrics, trace events and the bench's spans on, requires the same
   answers bit for bit, and reports the per-layer metrics instead of
   the end-to-end ones. README.md describes every workload and metric. *)

let run_workload name (cfg : Workload.config) =
  match name with
  | "fig4a-q1" -> Fig4a.run cfg
  | "mqo-64" -> Mqo.run cfg
  | "daemon-wal" -> Daemon_wal.run cfg
  | "shard-1m" -> Shard.run cfg
  | _ -> invalid_arg ("unknown workload " ^ name)

type outcome = {
  metrics : (string * float) list;
  attempted : int;
  failed : int;
  plain : Workload.result;
  traced : Workload.result option;
}

(* The untraced pass, then (with [trace]) the traced one. A traced pass
   that does not reproduce the untraced answers is a failed operation. *)
let execute name (cfg : Workload.config) ~trace =
  let plain = run_workload name { cfg with traced = false } in
  if not trace then
    { metrics = List.map (fun (n, _, _, _) -> (n, List.assoc n plain.e2e)) Manifest.end_to_end;
      attempted = plain.attempted;
      failed = plain.failed;
      plain;
      traced = None }
  else begin
    let t = run_workload name { cfg with traced = true } in
    let same = String.equal t.digest plain.digest in
    let layers =
      t.layers
      @ [ ("trace.overhead", Measure.ratio t.timed_ns plain.timed_ns -. 1.);
          ("trace.unattributed_share", Measure.unattributed_share "timed") ]
    in
    let metrics =
      List.map
        (fun (n, _, _) -> (n, Option.value ~default:0. (List.assoc_opt n layers)))
        Manifest.per_layer
    in
    { metrics;
      attempted = plain.attempted + t.attempted + 1;
      failed = plain.failed + t.failed + (if same then 0 else 1);
      plain;
      traced = Some t }
  end

let result_line o =
  Obs.Jsonx.obj
    [ ("correct", if o.failed = 0 then "true" else "false");
      ("attempted", Obs.Jsonx.int o.attempted);
      ("failed", Obs.Jsonx.int o.failed);
      ("metrics",
       Obs.Jsonx.obj
         (List.map
            (fun (n, v) ->
              ( n,
                Obs.Jsonx.obj
                  [ ("value", Obs.Jsonx.float v); ("unit", Obs.Jsonx.str (Manifest.unit_of n)) ] ))
            o.metrics)) ]

let report ~name ~(cfg : Workload.config) ~trace ~commit o =
  let module J = Obs.Jsonx in
  let kv l = J.obj (List.map (fun (k, v) -> (k, J.str v)) l) in
  let nums l = J.obj (List.map (fun (k, v) -> (k, J.float v)) l) in
  J.obj
    ([ ("workload", J.str name); ("seed", J.int cfg.seed); ("seconds", J.int cfg.seconds);
       ("trace", J.int (if trace then 1 else 0)); ("commit", J.str commit);
       ("ocaml_version", J.str Sys.ocaml_version);
       ("domains", J.int (Domain.recommended_domain_count ()));
       ("params", kv o.plain.params); ("digest", J.str o.plain.digest);
       ("attempted", J.int o.attempted); ("failed", J.int o.failed);
       ("error_rate", J.float (Measure.ratio o.failed o.attempted));
       ("end_to_end", nums o.plain.e2e) ]
    @
    match o.traced with
    | None -> []
    | Some t -> [ ("traced_digest", J.str t.digest); ("per_layer", nums o.metrics) ])

let print_outcome ~name ~(cfg : Workload.config) o =
  Printf.printf "workload %s  seed %d  seconds %d  ocaml %s  domains %d\n" name cfg.seed
    cfg.seconds Sys.ocaml_version (Domain.recommended_domain_count ());
  List.iter (fun (k, v) -> Printf.printf "  param %s = %s\n" k v) o.plain.params;
  Printf.printf "  digest %s%s\n" o.plain.digest
    (match o.traced with
    | None -> ""
    | Some t ->
      if String.equal t.digest o.plain.digest then " (traced: same)"
      else " (traced: DIFFERENT " ^ t.digest ^ ")");
  List.iter
    (fun (n, v) -> Printf.printf "  %-36s %16.6f %s\n" n v (Manifest.unit_of n))
    (if Option.is_none o.traced then o.metrics else o.plain.e2e @ o.metrics);
  Printf.printf "  ops %d attempted, %d failed (error_rate %g)\n" o.attempted o.failed
    (Measure.ratio o.failed o.attempted)

(* ---------- self-test ---------- *)

(* Every workload at tiny sizes, untraced and traced: answers must
   match bit for bit, nothing may fail (the fig4a-q1 run also checks the
   oracle against Chain_fb on every document), and BENCHMARK.json must
   be what [--manifest-json] prints. A workload that does not measure
   every end-to-end metric raises Not_found in [execute]. *)
let smoke manifest =
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  (match manifest with
  | None -> ()
  | Some path ->
    let text = In_channel.with_open_bin path In_channel.input_all in
    if not (String.equal text (Manifest.benchmark_json ())) then
      fail "%s differs from `pdbbench --manifest-json`" path);
  List.iter
    (fun (name, _) ->
      let cfg = { Workload.seed = 1; seconds = 1; smoke = true; traced = false } in
      let o, ns = Measure.timed (fun () -> execute name cfg ~trace:true) in
      Printf.printf "smoke %-10s %5.2f s  digest %s  ops %d failed %d\n%!" name (Measure.to_s ns)
        o.plain.digest o.attempted o.failed;
      if o.failed > 0 then fail "%s: %d of %d operations failed" name o.failed o.attempted)
    Manifest.workloads;
  match !problems with
  | [] ->
    print_endline "smoke: ok";
    0
  | ps ->
    List.iter (fun p -> prerr_endline ("smoke: " ^ p)) (List.rev ps);
    1

(* ---------- command line ---------- *)

let usage =
  "usage: pdbbench --workload W [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--spans \
   FILE] [--commit ID]\n\
  \       pdbbench --smoke [--manifest BENCHMARK.json]\n\
  \       pdbbench --manifest-json\n\
   workloads: " ^ String.concat ", " (List.map fst Manifest.workloads)

let die msg =
  prerr_endline ("pdbbench: " ^ msg);
  prerr_endline usage;
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse acc = function
    | [] -> acc
    | ("--smoke" | "--manifest-json") as f :: rest -> parse ((f, "") :: acc) rest
    | f :: v :: rest when String.starts_with ~prefix:"--" f -> parse ((f, v) :: acc) rest
    | a :: _ -> die ("unexpected argument " ^ a)
  in
  let opts = parse [] args in
  let known =
    [ "--workload"; "--seed"; "--seconds"; "--trace"; "--out"; "--spans"; "--commit"; "--smoke";
      "--manifest"; "--manifest-json" ]
  in
  List.iter (fun (f, _) -> if not (List.mem f known) then die ("unknown option " ^ f)) opts;
  let opt f = List.assoc_opt f opts in
  let int_opt f default =
    match opt f with
    | None -> default
    | Some v -> (
      match int_of_string_opt v with Some n -> n | None -> die (f ^ " needs an integer"))
  in
  if List.mem_assoc "--manifest-json" opts then print_string (Manifest.benchmark_json ())
  else if List.mem_assoc "--smoke" opts then exit (smoke (opt "--manifest"))
  else begin
    let name = match opt "--workload" with Some w -> w | None -> die "--workload is required" in
    if not (List.mem_assoc name Manifest.workloads) then die ("unknown workload " ^ name);
    let seed = int_opt "--seed" 1 and seconds = int_opt "--seconds" Manifest.run_seconds in
    if seconds < 1 then die "--seconds must be at least 1";
    let trace =
      match int_opt "--trace" 0 with 0 -> false | 1 -> true | _ -> die "--trace takes 0 or 1"
    in
    let cfg = { Workload.seed; seconds; smoke = false; traced = false } in
    let o = execute name cfg ~trace in
    print_outcome ~name ~cfg o;
    Option.iter Measure.write_spans (opt "--spans");
    Option.iter
      (fun path ->
        Out_channel.with_open_bin path (fun oc ->
            let commit = Option.value ~default:"unknown" (opt "--commit") in
            output_string oc (report ~name ~cfg ~trace ~commit o);
            output_char oc '\n'))
      (opt "--out");
    print_endline (result_line o)
  end
