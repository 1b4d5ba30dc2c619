(* pdb_lint — invariant linter for the sampler/view stack.

   Usage:
     pdb_lint [--root DIR] [--doc PATH] [--json PATH] [--summaries PATH] [--quiet]
     pdb_lint --list-rules
     pdb_lint --self-test

   Exit codes: 0 clean, 1 violations found, 2 self-test failure or
   internal error. See docs/STATIC_ANALYSIS.md for the rule catalogue
   and allowlist syntax. *)

(* pdb_lint: allow-file R3 — this CLI entry point owns stdout/stderr: the
   text/JSON reports and self-test verdicts are its entire purpose. *)

let ( // ) = Filename.concat

(* ------------------------------------------------------------------ *)
(* Self-test: seed one violation per rule in a temp tree, assert each  *)
(* is caught, and assert the allowlist silences a seeded twin.         *)
(* ------------------------------------------------------------------ *)

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (path // e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Sys.mkdir path 0o755
  end

(* Each seed is (relative path, expected rule id, source). Every violation
   reported in a seed file must carry that file's expected rule — a seed
   tripping a foreign rule is itself a self-test failure. *)
let seeds =
  [ ( "lib/relational/seed_r1.ml",
      "R1",
      "let bad_eq (a : string) b = a = b\n\
       let bad_sort xs = List.sort Stdlib.compare xs\n\
       let bad_hash x = Hashtbl.hash x\n\
       let bad_tbl () : (string, int) Hashtbl.t = Hashtbl.create 8\n" );
    (* The narrowed immediate-operand exemptions: comparing against [] or a
       0-ary polymorphic variant must fire (pattern-match instead), while
       true/false/None/() comparisons stay exempt — the exact-count check
       below pins both directions. *)
    ( "lib/relational/seed_r1_immediate.ml",
      "R1",
      "let bad_nil xs = xs = []\n\
       let bad_nonnil xs = xs <> []\n\
       let bad_tag s = s = `L\n\
       let ok_none o = o = None\n\
       let ok_bool b = b = true\n\
       let ok_unit u = u = ()\n" );
    ( "lib/relational/seed_r2.ml",
      "R2",
      "let wall () = Unix.gettimeofday ()\nlet cpu () = Sys.time ()\n" );
    ( "lib/relational/seed_r3.ml",
      "R3",
      "let shout () = print_endline \"loud\"\n" );
    ( "lib/relational/seed_r4.ml",
      "R4",
      "let quiet f = try f () with _ -> 0\n" );
    ( "lib/relational/seed_r5.ml",
      "R5",
      "let peek x = Obj.repr x\n" );
    ( "lib/relational/seed_r6.ml",
      "R6",
      "let m = Obs.Metrics.counter \"seed.uncatalogued\"\n\
       let g = Obs.Metrics.gauge \"seed.kind\"\n\
       let ping () = Obs.Trace.emit \"seed.event\"\n" );
    (* In lib/serve so the seed sits in R7's directory scope; the
       destructuring match must NOT fire (patterns are free). *)
    ( "lib/serve/seed_r7.ml",
      "R7",
      "let box s = Relational.Value.Text s\n\
       let unbox v = match v with Relational.Value.Text s -> s | _ -> \"\"\n" );
    (* A feature name formatted in a hot-path file: the per-proposal
       Printf + hash lookup the compiled CRF removed. *)
    ( "lib/ie/crf.ml",
      "R7",
      "let score p s l = Factorgraph.Params.get p (Factorgraph.Templates.emission_feature s l)\n" );
    (* R8 direct: an unordered iteration callback writing wire bytes. *)
    ( "lib/serve/seed_r8_direct.ml",
      "R8",
      "let dump buf tbl =\n\
      \  Hashtbl.iter (fun k v -> Buffer.add_string buf (k ^ string_of_int v)) tbl\n" );
    (* R8 through one helper level: the fold's order-tainted return value
       travels through [snapshot] into the codec sink — only the
       interprocedural summary can see it. *)
    ( "lib/checkpoint/seed_r8_helper.ml",
      "R8",
      "let snapshot t = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t []\n\
       let write buf t = Codec.W.list Codec.W.string buf (snapshot t)\n" );
    ( "lib/mcmc/seed_r9_direct.ml",
      "R9",
      "let jitter () = Random.float 1.0\n" );
    (* R9 through one helper level: [pick_index] never touches Random.*
       itself; its violation exists only because [noise]'s summary says
       consumes-randomness. *)
    ( "lib/mcmc/seed_r9_helper.ml",
      "R9",
      "let noise () = Random.bits ()\n\
       let pick_index n = noise () mod n\n" );
    ( "lib/serve/seed_r10_direct.ml",
      "R10",
      "let port () = Sys.getenv \"PDB_PORT\"\n" );
    (* R10 through one helper level, same shape as the R9 twin. *)
    ( "lib/serve/seed_r10_helper.ml",
      "R10",
      "let raw () = Sys.getenv_opt \"PDB_ADDR\"\n\
       let addr () = match raw () with Some a -> a | None -> \"/tmp/pdb.sock\"\n" );
    (* A sprintf-built metric name whose wildcard pattern matches nothing
       in the catalogue must fire R6 (the pre-fix matcher saw only a bare
       '*' and reported it as not statically analyzable). *)
    ( "lib/relational/seed_r6_sprintf.ml",
      "R6",
      "let m op = Obs.Metrics.counter (Printf.sprintf \"seed.sprintf.%s.missing\" op)\n" );
    (* R11: of these five exports only [only_tested] lacks a non-test
       caller — [from_bin], [from_example] and [helper] (called from its
       own module) are used, and [allowed] carries an allowlist comment.
       The exact-count check below pins that R11 fires once, on line 1. *)
    ( "lib/relational/seed_r11.mli",
      "R11",
      "val only_tested : int -> int\n\
       val from_bin : int -> int\n\
       val from_example : int -> int\n\
       val helper : int -> int\n\
       (* pdb_lint: allow R11 \xe2\x80\x94 self-test: allowlist must silence R11 *)\n\
       val allowed : int -> int\n" );
    (* R12: a second copy of the sample step, qualified either way. *)
    ( "lib/serve/seed_r12.ml",
      "R12",
      "let build db q = Relational.View.create db q\n\
       let step v d = View.update v d\n" )
  ]

(* Fixtures that must produce NO violations: sanitizer recognition, the
   sanctioned boundary files, and sprintf names that match the catalogue.
   Any violation in one of these is a self-test failure. *)
let clean_seeds =
  [ (* List.sort launders the fold's order taint; Hashtbl.length is an
       order-insensitive reduction. Neither may reach R8. *)
    ( "lib/checkpoint/seed_r8_sorted.ml",
      "let snapshot t =\n\
      \  List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) t [])\n\
       let write buf t = Codec.W.list Codec.W.string buf (snapshot t)\n\
       let count buf t = Codec.W.uvarint buf (Hashtbl.length t)\n" );
    (* lib/prng/prng.ml is the sanctioned Random.* boundary: no R9 inside
       it, and no R9 for callers drawing through it. *)
    ("lib/prng/prng.ml", "let bits () = Random.bits ()\n");
    ("lib/mcmc/seed_r9_clean.ml", "let draw rng = Prng.bits rng\n");
    (* bin/ and the failpoint shim own ambient env reads (R10). The
       [<> None] compare is against an immediate, so R1 stays quiet too. *)
    ("bin/seed_cli.ml", "let port () = Sys.getenv_opt \"PDB_PORT\"\n");
    ( "lib/checkpoint/failpoint.ml",
      "let enabled () = Sys.getenv_opt \"PDB_FAILPOINT\" <> None\n" );
    (* R7 leaves text alone that is built only to be raised. *)
    ( "lib/ie/proposals.ml",
      "let check n = if n < 0 then invalid_arg (Printf.sprintf \"bad %d\" n)\n\
       let name s = if s = \"\" then failwith (\"empty: \" ^ s) else s\n" );
    (* sprintf-built name matching the catalogued seed.dyn.<op>.rows. *)
    ( "lib/relational/seed_r6_dyn.ml",
      "let m op = Obs.Metrics.counter (Printf.sprintf \"seed.dyn.%s.rows\" op)\n" );
    (* R11's callers: only [only_tested] is left to a test/ file. *)
    ( "lib/relational/seed_r11.ml",
      "let helper x = x + 1\n\
       let only_tested x = x\n\
       let from_bin x = helper x\n\
       let from_example x = x\n\
       let allowed x = x\n" );
    ("test/seed_r11_test.ml", "let () = ignore (Relational.Seed_r11.only_tested 1)\n");
    ( "bin/seed_r11_cli.ml",
      "open Seed_r11_opened\n\
       let () = ignore (Relational.Seed_r11.from_bin 1 + anything)\n" );
    ( "examples/seed_r11_example.ml",
      "module S = Set.Make (Seed_r11_functor)\n\
       let () = ignore (Seed_r11.from_example 1)\n" );
    (* Modules opened or passed to a functor count as using every export. *)
    ("lib/relational/seed_r11_opened.mli", "val anything : int\n");
    ("lib/relational/seed_r11_opened.ml", "let anything = 1\n");
    ("lib/relational/seed_r11_functor.mli", "type t = int\nval compare : t -> t -> int\n");
    ("lib/relational/seed_r11_functor.ml", "type t = int\nlet compare = Int.compare\n");
    (* R12's home, and bench/, may drive views directly. *)
    ("lib/core/view_set.ml", "let build db q = Relational.View.create db q\n");
    ("bench/seed_r12_bench.ml", "let step v d = Relational.View.update v d\n")
  ]

(* The same violations under allowlist comments must be silent. *)
let allow_seed =
  ( "lib/relational/seed_allow.ml",
    "(* pdb_lint: allow no-poly-compare \xe2\x80\x94 self-test: allowlist must silence R1 *)\n\
     let ok (a : string) b = a = b\n\
     \n\
     let ok2 () =\n\
     \  (* pdb_lint: allow R2 \xe2\x80\x94 self-test: allowlist must silence R2 *)\n\
     \  Unix.gettimeofday ()\n" )

(* seed.stale is catalogued but never registered; seed.kind is catalogued
   with the wrong kind. Both directions of the R6 diff must fire. *)
let seed_doc =
  "# Observability (self-test fixture)\n\n\
   ## Metric catalogue\n\n\
   | name | kind | unit | meaning |\n\
   |---|---|---|---|\n\
   | `seed.stale` | counter | x | catalogued but gone from code |\n\
   | `seed.kind` | counter | x | registered as a gauge in code |\n\
   | `seed.dyn.<op>.rows` | counter | x | matched by a sprintf-built name |\n"

let self_test () =
  let root =
    Filename.get_temp_dir_name ()
    // Printf.sprintf "pdb_lint_selftest_%d" (Unix.getpid ())
  in
  rm_rf root;
  let fail fmt =
    Printf.ksprintf
      (fun s ->
        Printf.eprintf "pdb_lint --self-test: FAIL: %s\n" s;
        rm_rf root;
        exit 2)
      fmt
  in
  List.iter
    (fun (rel, _, src) ->
      mkdir_p (Filename.dirname (root // rel));
      write_file (root // rel) src)
    seeds;
  let allow_rel, allow_src = allow_seed in
  write_file (root // allow_rel) allow_src;
  List.iter
    (fun (rel, src) ->
      mkdir_p (Filename.dirname (root // rel));
      write_file (root // rel) src)
    clean_seeds;
  mkdir_p (root // "docs");
  write_file (root // Lint_engine.default_doc) seed_doc;
  let run = Lint_engine.run ~root () in
  let by_file f =
    List.filter (fun v -> String.equal v.Lint_engine.file f) run.Lint_engine.violations
  in
  (* every seeded rule fires, and fires alone, in its seed file *)
  List.iter
    (fun (rel, expect, _) ->
      match by_file rel with
      | [] -> fail "rule %s: no violation caught in %s" expect rel
      | vs ->
        List.iter
          (fun v ->
            if not (String.equal v.Lint_engine.rule_id expect) then
              fail "%s: expected only %s violations, got %s (%s)" rel expect
                v.Lint_engine.rule_id v.Lint_engine.msg)
          vs)
    seeds;
  (* R11 fires exactly once, on the export only a test calls *)
  (match by_file "lib/relational/seed_r11.mli" with
  | [ v ] when Int.equal v.Lint_engine.line 1 -> ()
  | vs -> fail "seed_r11.mli: expected exactly 1 R11 violation on line 1, got %d" (List.length vs));
  (* exactly the bad_* lines of the immediate-operand seed fire: more would
     mean an ok_* exemption regressed, fewer that a narrowing was lost *)
  (let imm = by_file "lib/relational/seed_r1_immediate.ml" in
   if not (Int.equal (List.length imm) 3) then
     fail "seed_r1_immediate: expected exactly 3 R1 violations, got %d" (List.length imm));
  (* the helper-indirection seeds must fire on the *caller* line (line 2),
     which only interprocedural summary propagation can reach: the caller
     never mentions Hashtbl/Random/Sys itself. *)
  List.iter
    (fun (rel, expect) ->
      if
        not
          (List.exists
             (fun v -> Int.equal v.Lint_engine.line 2)
             (List.filter (fun v -> String.equal v.Lint_engine.rule_id expect) (by_file rel)))
      then fail "%s: no %s violation propagated to the line-2 caller" rel expect)
    [ ("lib/checkpoint/seed_r8_helper.ml", "R8");
      ("lib/mcmc/seed_r9_helper.ml", "R9");
      ("lib/serve/seed_r10_helper.ml", "R10") ];
  (* sanitized/sanctioned fixtures stay perfectly silent *)
  List.iter
    (fun (rel, _) ->
      match by_file rel with
      | [] -> ()
      | v :: _ ->
        fail "clean fixture %s unexpectedly fired %s at line %d (%s)" rel
          v.Lint_engine.rule_id v.Lint_engine.line v.Lint_engine.msg)
    clean_seeds;
  (* the stale doc entry is reported against the doc file *)
  let doc_vs = by_file Lint_engine.default_doc in
  if
    not
      (List.exists
         (fun v ->
           String.equal v.Lint_engine.rule_id "R6"
           && Str.string_match (Str.regexp ".*seed\\.stale.*") v.Lint_engine.msg 0)
         doc_vs)
  then fail "R6: stale catalogue entry seed.stale not reported against the doc";
  (* the kind mismatch is reported *)
  if
    not
      (List.exists
         (fun v ->
           String.equal v.Lint_engine.rule_id "R6"
           && Str.string_match (Str.regexp ".*seed\\.kind.*catalogued as a counter.*")
                v.Lint_engine.msg 0)
         run.Lint_engine.violations)
  then fail "R6: kind drift on seed.kind not reported";
  (* allowlisted twins stay silent *)
  (match by_file allow_rel with
  | [] -> ()
  | v :: _ ->
    fail "allowlist failed to silence %s in %s (line %d)" v.Lint_engine.rule_id allow_rel
      v.Lint_engine.line);
  rm_rf root;
  Printf.printf "pdb_lint --self-test: OK (%d seeded violations caught across %d rules)\n"
    (List.length run.Lint_engine.violations)
    (List.length seeds);
  exit 0

(* ------------------------------------------------------------------ *)
(* CLI                                                                *)
(* ------------------------------------------------------------------ *)

let () =
  let root = ref "." in
  let doc = ref Lint_engine.default_doc in
  let json = ref "" in
  let summaries = ref "" in
  let quiet = ref false in
  let do_self_test = ref false in
  let list_rules = ref false in
  let spec =
    [ ("--root", Arg.Set_string root, "DIR repository root to scan (default .)");
      ( "--doc",
        Arg.Set_string doc,
        Printf.sprintf "PATH metric catalogue for R6, relative to root (default %s)"
          Lint_engine.default_doc );
      ("--json", Arg.Set_string json, "PATH write a JSON report there ('-' for stdout)");
      ( "--summaries",
        Arg.Set_string summaries,
        "PATH write the interprocedural effect-summary table there ('-' for stdout)" );
      ("--quiet", Arg.Set quiet, " suppress the text report (exit code only)");
      ("--self-test", Arg.Set do_self_test, " seed one violation per rule and assert each is caught");
      ("--list-rules", Arg.Set list_rules, " print the rule catalogue and exit")
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" a)))
    "pdb_lint [--root DIR] [--doc PATH] [--json PATH] [--summaries PATH] [--quiet] [--self-test] [--list-rules]";
  if !list_rules then begin
    List.iter
      (fun r ->
        Printf.printf "%s %-18s %s\n     fix: %s\n" r.Lint_engine.id r.Lint_engine.rname
          r.Lint_engine.blurb r.Lint_engine.hint)
      Lint_engine.rules;
    exit 0
  end;
  if !do_self_test then self_test ();
  let run =
    try Lint_engine.run ~doc:!doc ~root:!root ()
    with e ->
      Printf.eprintf "pdb_lint: internal error: %s\n" (Printexc.to_string e);
      exit 2
  in
  if not !quiet then Lint_engine.report_text stdout run;
  (match !summaries with
  | "" -> ()
  | "-" -> print_string run.Lint_engine.summaries
  | path ->
    let oc = open_out_bin path in
    output_string oc run.Lint_engine.summaries;
    close_out oc);
  (match !json with
  | "" -> ()
  | "-" -> Lint_engine.report_json stdout run
  | path ->
    let oc = open_out_bin path in
    Lint_engine.report_json oc run;
    close_out oc);
  exit (if run.Lint_engine.violations = [] then 0 else 1)
