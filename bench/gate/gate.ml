(* Perf-regression gate over the BENCH_*.json bench outputs.

   Every bench group is one declaration below: the file it writes, the
   booleans that must hold wherever they occur (durability and sharing
   must never change an answer), and its checks. A check selects the row
   with the largest size key, computes one value from it, and holds that
   value to the floor or ceiling declared for that size. A floor marked
   [slack] must also stay within 50% of the committed baseline when the
   baseline's largest size is the same; smoke regenerations carry smaller
   sizes than the committed full-scale files, so that comparison skips
   itself in CI. A BENCH_*.json with no declaration fails outright: a
   bench output without a floor is a hole where numbers rot silently.

   bench_gate.ml runs the declarations over the working tree;
   test/test_gate.ml seeds a regression against every one of them. *)

module J = Obs.Jsonx

(* Where a group's sized rows live in its document. *)
type rows =
  | Array of { key : string; size : string }
      (* [doc.key] is an array of objects, each sized by its [size] field *)
  | Single of { key : string; size : string }
      (* [doc.key] is one object, sized by [doc.config.size] *)
  | Tuples of string
      (* [doc.key] holds "<series>/<N>k-tuples" entries: row N maps each
         series name to its entry at that size *)

(* The value a check computes from the largest row. *)
type value =
  | Field of string
  | Ratio of string * string  (* one field over another *)
  | Per_size of string  (* the field over the row's size *)
  | Versus_size of string * int  (* the field over the same field in the row of that size *)

(* Limits by size, largest first: the first whose minimum size the row
   reaches applies; a row smaller than every minimum is not checked. A
   value that is not a number (0/0) fails every limit. *)
type bound =
  | Floor of { by_size : (int * float) list; slack : bool }
  | Ceiling of (int * float) list

type check = { name : string; rows : rows; value : value; bound : bound }

type group = {
  group : string;
  file : string;
  must_hold : string list;
  checks : check list;
}

let groups =
  [ { group = "view";
      file = "BENCH_view.json";
      must_hold = [];
      checks =
        [ { name = "speedup";
            rows = Tuples "ns_per_op";
            value = Ratio ("naive-rerun/naive-rerun", "view-update-indexed/view-update");
            bound = Floor { by_size = [ (10, 10.); (0, 3.) ]; slack = true } } ] };
    { group = "serve";
      file = "BENCH_serve.json";
      must_hold = [ "marginals_equal" ];
      checks =
        [ { name = "speedup";
            rows = Array { key = "multi_query"; size = "queries" };
            value = Field "speedup";
            bound = Floor { by_size = [ (64, 5.); (8, 2.); (0, 1.) ]; slack = true } } ] };
    { group = "wal";
      file = "BENCH_wal.json";
      must_hold = [ "marginals_equal"; "crash_recovery_equal" ];
      checks =
        [ { name = "overhead";
            rows = Array { key = "wal"; size = "n_tokens" };
            value = Field "wal_overhead_samples";
            bound = Ceiling [ (0, 2.) ] };
          { name = "amplification";
            rows = Array { key = "wal"; size = "n_tokens" };
            value = Field "amplification_vs_snapshot";
            bound =
              Floor { by_size = [ (100_000, 1000.); (10_000, 100.); (0, 10.) ]; slack = true } }
        ] };
    { group = "shard";
      file = "BENCH_shard.json";
      must_hold = [];
      checks =
        [ { name = "storage";
            rows = Single { key = "mem"; size = "mem_tokens" };
            value = Field "mem_ratio";
            bound = Floor { by_size = [ (0, 2.) ]; slack = true } };
          { name = "scaling";
            rows = Array { key = "scale"; size = "shards" };
            value = Versus_size ("samples_per_s", 1);
            bound = Floor { by_size = [ (2, 1.2) ]; slack = false } } ] };
    { group = "mqo";
      file = "BENCH_mqo.json";
      must_hold = [ "marginals_equal" ];
      checks =
        [ { name = "fanout";
            rows = Array { key = "mqo"; size = "queries" };
            value = Field "fanout_speedup";
            bound = Floor { by_size = [ (64, 1.5); (0, 0.5) ]; slack = true } } ] };
    { group = "daemon";
      file = "BENCH_daemon.json";
      must_hold = [ "resume_marginals_equal"; "admission_ok"; "coalescing_ok" ];
      checks =
        [ { name = "amortization";
            rows = Single { key = "daemon"; size = "n_tokens" };
            value = Field "register_amortization";
            bound = Floor { by_size = [ (0, 0.5) ]; slack = true } } ] };
    { group = "checkpoint";
      file = "BENCH_checkpoint.json";
      must_hold = [];
      checks =
        [ { name = "bytes_per_token";
            rows = Array { key = "checkpoint"; size = "n_tokens" };
            value = Per_size "snapshot_bytes";
            bound = Ceiling [ (0, 100.) ] } ] } ]

(* ---------- reading documents ---------- *)

type failure = { check : string; reason : string }

exception Failed of failure

let fail check fmt = Printf.ksprintf (fun reason -> raise (Failed { check; reason })) fmt

let number row key = match J.field row key with Some (J.Num x) -> Some x | _ -> None

let size_of row key = Option.map int_of_float (number row key)

(* "<series>/<N>k-tuples" -> (N, series) *)
let tuples_key k =
  match String.rindex_opt k '/' with
  | None -> None
  | Some i ->
    let suffix = String.sub k (i + 1) (String.length k - i - 1) in
    Option.map (fun n -> (n, String.sub k 0 i)) (Scanf.sscanf_opt suffix "%uk-tuples%!" Fun.id)

(* The document's rows as (size, row), ascending in size. *)
let sized_rows rows doc =
  let sized =
    match rows with
    | Array { key; size } -> (
      match J.field doc key with
      | Some (J.Arr items) ->
        List.filter_map (fun r -> Option.map (fun n -> (n, r)) (size_of r size)) items
      | _ -> [])
    | Single { key; size } -> (
      match (J.field doc key, Option.bind (J.field doc "config") (fun c -> size_of c size)) with
      | Some r, Some n -> [ (n, r) ]
      | _ -> [])
    | Tuples key -> (
      match J.field doc key with
      | Some (J.Obj entries) ->
        let cells =
          List.filter_map
            (fun (k, v) -> Option.map (fun (n, series) -> (n, (series, v))) (tuples_key k))
            entries
        in
        List.sort_uniq Int.compare (List.map fst cells)
        |> List.map (fun n ->
               (n, J.Obj (List.filter_map (fun (m, c) -> if m = n then Some c else None) cells)))
      | _ -> [])
  in
  List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) sized

let largest_size rows doc =
  match List.rev (sized_rows rows doc) with (n, _) :: _ -> Some n | [] -> None

let size_label rows n =
  match rows with
  | Tuples _ -> Printf.sprintf "%dk-tuples" n
  | Array { size; _ } | Single { size; _ } -> Printf.sprintf "%s=%d" size n

let limits = function Floor { by_size; _ } -> by_size | Ceiling by_size -> by_size

let limit_at bound n =
  Option.map snd (List.find_opt (fun (min, _) -> n >= min) (limits bound))

(* The check's value at the largest row, with that row's size. *)
let measure name check doc =
  let rows = sized_rows check.rows doc in
  match List.rev rows with
  | [] -> fail name "no rows"
  | (n, row) :: _ ->
    let get r f =
      match number r f with
      | Some x -> x
      | None -> fail name "no %s at %s" f (size_label check.rows n)
    in
    let v =
      match check.value with
      | Field f -> get row f
      | Ratio (f, g) -> get row f /. get row g
      | Per_size f -> get row f /. float_of_int n
      | Versus_size (f, k) -> (
        match List.assoc_opt k rows with
        | Some base -> get row f /. get base f
        | None -> fail name "no row at %s" (size_label check.rows k))
    in
    (n, v)

let rec occurrences key = function
  | J.Obj fields ->
    List.concat_map
      (fun (k, v) -> (if String.equal k key then [ v ] else []) @ occurrences key v)
      fields
  | J.Arr items -> List.concat_map (occurrences key) items
  | _ -> []

(* ---------- the gate ---------- *)

let check_group ~say g ~fresh ~baseline =
  List.iter
    (fun key ->
      let name = g.group ^ "." ^ key in
      match occurrences key fresh with
      | [] -> fail name "%s: no %s" g.file key
      | vs ->
        if not (List.for_all (function J.Bool b -> b | _ -> false) vs) then
          fail name "%s: %s is not true in every row" g.file key;
        say (Printf.sprintf "%s: true in %d row(s)" name (List.length vs)))
    g.must_hold;
  List.iter
    (fun c ->
      let name = g.group ^ "." ^ c.name in
      let n, v = measure name c fresh in
      let at = size_label c.rows n in
      match limit_at c.bound n with
      | None -> ()
      | Some limit -> (
        match c.bound with
        | Ceiling _ ->
          say (Printf.sprintf "%s at %s: %.3f (ceiling %g)" name at v limit);
          if not (v <= limit) then fail name "%.3f at %s above ceiling %g" v at limit
        | Floor { slack; _ } -> (
          say (Printf.sprintf "%s at %s: %.3f (floor %g)" name at v limit);
          if not (v >= limit) then fail name "%.3f at %s below floor %g" v at limit;
          match baseline with
          | Some base when slack && largest_size c.rows base = Some n ->
            let name = name ^ ".slack" in
            let _, b = measure name c base in
            let floor = 0.5 *. b in
            say
              (Printf.sprintf "%s at %s: committed baseline %.3f (slack floor %.3f)" name at b
                 floor);
            if not (v >= floor) then
              fail name "%.3f at %s regressed >50%% from baseline %.3f" v at b
          | _ -> ())))
    g.checks

let is_bench_output f =
  String.starts_with ~prefix:"BENCH_" f && String.ends_with ~suffix:".json" f

(* Runs every group. [files] names the BENCH_*.json outputs present,
   [read f] is the fresh text of output [f] and [committed f] its
   committed baseline, each [None] when absent. *)
let run ~say ~files ~read ~committed =
  let parse what f text =
    match J.parse text with
    | doc -> doc
    | exception J.Parse_error msg -> fail what "%s: %s" f msg
  in
  match
    List.iter
      (fun f ->
        if is_bench_output f && not (List.exists (fun g -> String.equal g.file f) groups) then
          fail "ungated" "%s has no gate entry; declare its floors in bench/gate/gate.ml" f)
      files;
    List.iter
      (fun g ->
        match read g.file with
        | None | Some "" -> fail g.group "%s missing or empty" g.file
        | Some text ->
          let fresh = parse g.group g.file text in
          let baseline = Option.map (parse g.group ("committed " ^ g.file)) (committed g.file) in
          check_group ~say g ~fresh ~baseline)
      groups
  with
  | () -> Ok ()
  | exception Failed f -> Error f
