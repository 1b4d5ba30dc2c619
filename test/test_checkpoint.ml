(* Tests for the durability layer (lib/checkpoint + Serve durability):
   the codec round-trips and detects corruption; snapshot -> restore ->
   snapshot is byte-identical for random worlds and views; a chain killed
   at an exact sample index by the failpoint and resumed from its last
   checkpoint produces bit-identical marginals to an uninterrupted run,
   with zero bootstrap evaluations paid on restore. *)

open Relational
open Core
open Checkpoint

let r vs = Row.make vs

(* ------------------------------------------------------------------ *)
(* Codec primitives and framing *)

let test_codec_roundtrip () =
  let b = Codec.W.create () in
  Codec.W.u8 b 0xAB;
  List.iter (Codec.W.uvarint b) [ 0; 1; 127; 128; 300; 1 lsl 40 ];
  List.iter (Codec.W.varint b) [ 0; -1; 1; -64; 64; min_int + 1; max_int ];
  List.iter (Codec.W.float b) [ 0.; -0.; 1.5; infinity; neg_infinity; nan; 1e-300 ];
  Codec.W.string b "";
  Codec.W.string b "hello \x00 world";
  Codec.W.bool b true;
  Codec.W.option b Codec.W.string None;
  Codec.W.option b Codec.W.string (Some "x");
  Codec.W.list b Codec.W.uvarint [ 3; 1; 4; 1; 5 ];
  let r = Codec.R.of_string (Codec.W.contents b) in
  Alcotest.(check int) "u8" 0xAB (Codec.R.u8 r);
  List.iter
    (fun n -> Alcotest.(check int) "uvarint" n (Codec.R.uvarint r))
    [ 0; 1; 127; 128; 300; 1 lsl 40 ];
  List.iter
    (fun n -> Alcotest.(check int) "varint" n (Codec.R.varint r))
    [ 0; -1; 1; -64; 64; min_int + 1; max_int ];
  List.iter
    (fun x ->
      let y = Codec.R.float r in
      Alcotest.(check int64) "float bits" (Int64.bits_of_float x) (Int64.bits_of_float y))
    [ 0.; -0.; 1.5; infinity; neg_infinity; nan; 1e-300 ];
  Alcotest.(check string) "empty string" "" (Codec.R.string r);
  Alcotest.(check string) "string" "hello \x00 world" (Codec.R.string r);
  Alcotest.(check bool) "bool" true (Codec.R.bool r);
  Alcotest.(check (option string)) "none" None (Codec.R.option r Codec.R.string);
  Alcotest.(check (option string)) "some" (Some "x") (Codec.R.option r Codec.R.string);
  Alcotest.(check (list int)) "list" [ 3; 1; 4; 1; 5 ] (Codec.R.list r Codec.R.uvarint);
  Alcotest.(check bool) "exhausted" true (Codec.R.at_end r)

let test_frame_detects_corruption () =
  let payload = "some checkpoint payload bytes" in
  let framed = Codec.frame ~version:1 payload in
  Alcotest.(check string) "frame round-trip" payload
    (Codec.unframe ~expect_version:1 framed);
  (* Flipping any byte must trip the CRC (or the magic/length checks). *)
  for i = 0 to String.length framed - 1 do
    let broken = Bytes.of_string framed in
    Bytes.set broken i (Char.chr (Char.code (Bytes.get broken i) lxor 0x40));
    match Codec.unframe ~expect_version:1 (Bytes.to_string broken) with
    | _ -> Alcotest.failf "corruption at byte %d went undetected" i
    | exception Codec.Corrupt _ -> ()
  done;
  (match Codec.unframe ~expect_version:2 framed with
  | _ -> Alcotest.fail "version mismatch accepted"
  | exception Codec.Corrupt _ -> ());
  match Codec.unframe ~expect_version:1 (String.sub framed 0 10) with
  | _ -> Alcotest.fail "truncation accepted"
  | exception Codec.Corrupt _ -> ()

let test_atomic_write () =
  let path = Filename.temp_file "ckpt_test" ".bin" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let n = Codec.write_file ~path "first" in
  Alcotest.(check int) "bytes written" 5 n;
  ignore (Codec.write_file ~path "second" : int);
  Alcotest.(check string) "replaced atomically" "second" (Codec.read_file ~path);
  Alcotest.(check bool) "no temp file left" false (Sys.file_exists (path ^ ".tmp"))

(* ------------------------------------------------------------------ *)
(* The color-model world of test_serve, with a seeded random initial
   coloring so qcheck explores genuinely different worlds. *)

let color_domain = Factorgraph.Domain.make [ "red"; "blue" ]
let color_field i = Field.make ~table:"ITEM" ~key:(Value.Int i) ~column:"color"

let small_db ~n_items ~coloring () =
  let db = Database.create () in
  let schema =
    Schema.make
      [ { Schema.name = "id"; ty = Value.T_int };
        { Schema.name = "color"; ty = Value.T_text } ]
  in
  let t = Database.create_table db ~pk:"id" ~name:"ITEM" schema in
  for i = 0 to n_items - 1 do
    let color = if (coloring lsr i) land 1 = 0 then "red" else "blue" in
    Table.insert t (r [ Value.Int i; Value.Text color ])
  done;
  db

(* Build the chain over an existing ITEM database — the restore-side
   constructor as well as the fresh-start one. *)
let pdb_over_db ~n_items ~seed db =
  let world = World.create db in
  let gp = Graph_pdb.create world in
  let vars =
    Array.init n_items (fun i -> Graph_pdb.bind gp (color_field i) color_domain)
  in
  let g = Graph_pdb.graph gp in
  Array.iter
    (fun v -> ignore (Factorgraph.Graph.add_table_factor g ~scope:[| v |] [| 0.; 0.7 |]))
    vars;
  for i = 0 to n_items - 2 do
    ignore
      (Factorgraph.Graph.add_table_factor g ~scope:[| vars.(i); vars.(i + 1) |]
         [| 1.0; 0.; 0.; 1.0 |])
  done;
  Pdb.create ~world ~proposal:(Graph_pdb.flip_proposal gp) ~rng:(Mcmc.Rng.create seed)

let build_pdb ?(n_items = 4) ?(coloring = 0) ~seed () =
  pdb_over_db ~n_items ~seed (small_db ~n_items ~coloring ())

let test_queries =
  [ "SELECT id FROM ITEM WHERE color='blue'";
    "SELECT color, COUNT(*) AS n FROM ITEM GROUP BY color";
    "SELECT T1.id FROM ITEM T1, ITEM T2 WHERE T1.color=T2.color AND T1.id=0" ]

let make_registry ?(n_items = 4) ?(coloring = 0) ~seed () =
  let reg = Serve.Registry.create (build_pdb ~n_items ~coloring ~seed ()) in
  List.iter
    (fun sql -> ignore (Serve.Registry.register_sql reg sql : Serve.Registry.query_id))
    test_queries;
  reg

(* ------------------------------------------------------------------ *)
(* Snapshot round-trips *)

(* qcheck: for random worlds (size, coloring, seed, samples walked), the
   snapshot of a restored registry is byte-identical to the snapshot it
   was restored from — the canonical-encoding contract that makes the CRC
   and the resume-determinism guarantees meaningful. *)
let prop_snapshot_roundtrip_byte_identical =
  QCheck.Test.make ~name:"checkpoint: snapshot/restore/snapshot byte-identical"
    ~count:40
    QCheck.(
      quad (int_range 2 6) (int_range 0 63) (int_range 0 10_000) (int_range 0 25))
    (fun (n_items, coloring, seed, samples) ->
      let reg = make_registry ~n_items ~coloring ~seed () in
      Serve.Registry.run reg ~thin:3 ~samples;
      let snap = Serve.Registry.snapshot reg in
      let bytes = Checkpoint.State.encode snap in
      let reg' =
        Serve.Registry.restore
          ~make_pdb:(fun db -> pdb_over_db ~n_items ~seed db)
          (Checkpoint.State.decode bytes)
      in
      let bytes' = Checkpoint.State.encode (Serve.Registry.snapshot reg') in
      String.equal bytes bytes')

let estimates_exactly_equal msg a b =
  let ea = Marginals.estimates a and eb = Marginals.estimates b in
  Alcotest.(check int) (msg ^ ": same support") (List.length ea) (List.length eb);
  List.iter2
    (fun (ra, pa) (rb, pb) ->
      if not (Row.equal ra rb) || pa <> pb then
        Alcotest.failf "%s: estimates differ at %s (%.17g vs %.17g)" msg
          (Row.to_string ra) pa pb)
    ea eb;
  Alcotest.(check int) (msg ^ ": same z") (Marginals.samples a) (Marginals.samples b)

(* A restored registry must continue the chain exactly: walk both the
   original and its restored clone and compare every query's estimates. *)
let test_restore_continues_stream () =
  let reg = make_registry ~seed:91 () in
  Serve.Registry.run reg ~thin:5 ~samples:20;
  let reg' =
    Serve.Registry.restore
      ~make_pdb:(fun db -> pdb_over_db ~n_items:4 ~seed:91 db)
      (Checkpoint.State.decode (Checkpoint.State.encode (Serve.Registry.snapshot reg)))
  in
  Alcotest.(check int) "samples restored" 20 (Serve.Registry.samples reg');
  Alcotest.(check int) "steps restored" (Pdb.steps_taken (Serve.Registry.pdb reg))
    (Pdb.steps_taken (Serve.Registry.pdb reg'));
  Serve.Registry.run reg ~thin:5 ~samples:15;
  Serve.Registry.run reg' ~thin:5 ~samples:15;
  List.iter2
    (fun sql (id, id') ->
      estimates_exactly_equal sql
        (Serve.Registry.marginals reg id)
        (Serve.Registry.marginals reg' id'))
    test_queries
    (List.combine
       (List.map fst (Serve.Registry.queries reg))
       (List.map fst (Serve.Registry.queries reg')))

let test_snapshot_file_corruption_detected () =
  let reg = make_registry ~seed:17 () in
  Serve.Registry.run reg ~thin:3 ~samples:5;
  let path = Filename.temp_file "ckpt_test" ".ckpt" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  ignore (Checkpoint.State.save ~path (Serve.Registry.snapshot reg) : int);
  ignore (Checkpoint.State.load ~path : Checkpoint.State.t);
  let data = Codec.read_file ~path in
  let broken = Bytes.of_string data in
  let mid = Bytes.length broken / 2 in
  Bytes.set broken mid (Char.chr (Char.code (Bytes.get broken mid) lxor 0x01));
  ignore (Codec.write_file ~path (Bytes.to_string broken) : int);
  match Checkpoint.State.load ~path with
  | _ -> Alcotest.fail "bit flip in snapshot file went undetected"
  | exception Codec.Corrupt _ -> ()

let test_restore_db_shape () =
  let db = small_db ~n_items:4 ~coloring:0b0101 () in
  Table.create_index (Database.table db "ITEM") "color";
  let db' = Checkpoint.State.restore_db (Checkpoint.State.capture_tables db) in
  let t' = Database.table db' "ITEM" in
  Alcotest.(check (option string)) "pk restored" (Some "id") (Table.pk_column t');
  Alcotest.(check bool) "index restored" true (Table.has_index t' "color");
  Alcotest.(check bool) "rows restored" true
    (Bag.equal (Table.rows (Database.table db "ITEM")) (Table.rows t'));
  Alcotest.(check bool) "pk lookup works" true
    (Table.find_by_pk t' (Value.Int 2) <> None)

(* ------------------------------------------------------------------ *)
(* Failpoint *)

let test_failpoint_one_shot () =
  Failpoint.disarm ();
  Failpoint.hit "x" ~index:3;
  Failpoint.arm ~name:"x" ~at:3 ();
  Alcotest.(check (option (pair string int))) "armed" (Some ("x", 3)) (Failpoint.armed ());
  Failpoint.hit "x" ~index:2;
  Failpoint.hit "y" ~index:3;
  (match Failpoint.hit "x" ~index:3 with
  | () -> Alcotest.fail "armed failpoint did not fire"
  | exception Failpoint.Injected { name; index } ->
    Alcotest.(check string) "name" "x" name;
    Alcotest.(check int) "index" 3 index);
  (* One-shot: the same index passes on the next visit, so a resumed chain
     does not re-crash forever. *)
  Failpoint.hit "x" ~index:3;
  Alcotest.(check (option (pair string int))) "disarmed after firing" None
    (Failpoint.armed ())

let test_failpoint_env () =
  Failpoint.disarm ();
  Unix.putenv "PDB_FAILPOINT" "pool.sample@25";
  Fun.protect ~finally:(fun () -> Unix.putenv "PDB_FAILPOINT" "")
  @@ fun () ->
  Failpoint.arm_from_env ();
  Alcotest.(check (option (pair string int))) "parsed" (Some ("pool.sample", 25))
    (Failpoint.armed ());
  Failpoint.disarm ();
  Unix.putenv "PDB_FAILPOINT" "pool.sample@7x3";
  Failpoint.arm_from_env ();
  Alcotest.(check (option (pair string int))) "parsed with times" (Some ("pool.sample", 7))
    (Failpoint.armed ());
  (match Failpoint.hit "pool.sample" ~index:7 with
  | () -> Alcotest.fail "should fire (1/3)"
  | exception Failpoint.Injected _ -> ());
  (match Failpoint.hit "pool.sample" ~index:7 with
  | () -> Alcotest.fail "should fire (2/3)"
  | exception Failpoint.Injected _ -> ());
  (match Failpoint.hit "pool.sample" ~index:7 with
  | () -> Alcotest.fail "should fire (3/3)"
  | exception Failpoint.Injected _ -> ());
  Failpoint.hit "pool.sample" ~index:7;
  Unix.putenv "PDB_FAILPOINT" "garbage";
  match Failpoint.arm_from_env () with
  | () -> Alcotest.fail "malformed spec accepted"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Supervised kill-and-resume through the pool *)

let counter_value name =
  match Obs.Metrics.find Obs.Metrics.global name with
  | Some (Obs.Metrics.Counter n) -> n
  | _ -> 0

let fresh_ckpt_dir () =
  let path = Filename.temp_file "ckpt_dir" "" in
  Sys.remove path;
  Sys.mkdir path 0o700;
  path

let rm_rf dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

(* Supervised durable chains under one directory. compact_ratio 1e9 keeps
   the log growing between the start and close snapshots unless a test
   lowers it. *)
let wal_pool_durability ~dir ?(fsync_every = 1) ?(compact_ratio = 1e9) ~seed () =
  {
    Serve.Pool.dir;
    resume = false;
    retries = 2;
    backoff_s = 0.;
    remake = (fun ~chain db -> pdb_over_db ~n_items:4 ~seed:(seed + chain) db);
    policy = { Serve.Durable.fsync_every; compact_ratio };
  }

(* A crash with no snapshot on disk yet falls back to a clean fresh
   start — still bit-identical, because nothing of the dead attempt
   survives. The first compaction is the one inside Durable.start, so
   "wal.compact@1" dies before the initial snapshot is written. *)
let test_kill_before_first_checkpoint () =
  Obs.Metrics.set_enabled true;
  let dir = fresh_ckpt_dir () in
  Fun.protect ~finally:(fun () ->
      Obs.Metrics.set_enabled false;
      Failpoint.disarm ();
      rm_rf dir)
  @@ fun () ->
  let queries = [ (List.hd test_queries, Sql.parse (List.hd test_queries)) ] in
  let make ~chain = build_pdb ~seed:(800 + chain) () in
  let durability = { (wal_pool_durability ~dir ~seed:800 ()) with retries = 1 } in
  let reference = Serve.Pool.evaluate ~chains:1 ~make ~queries ~thin:3 ~samples:10 () in
  let restores0 = counter_value "checkpoint.restore.count" in
  let retries0 = counter_value "checkpoint.retry.count" in
  Failpoint.arm ~name:"wal.compact" ~at:1 ();
  let survived =
    Serve.Pool.evaluate ~chains:1 ~durability ~make ~queries ~thin:3 ~samples:10 ()
  in
  Alcotest.(check int) "one supervised retry" (retries0 + 1)
    (counter_value "checkpoint.retry.count");
  Alcotest.(check int) "no snapshot to restore" restores0
    (counter_value "checkpoint.restore.count");
  estimates_exactly_equal "fresh-start retry" (snd (List.hd reference))
    (snd (List.hd survived))

(* The retry budget is bounded: a poison chain (fails deterministically
   every attempt at an index past the last durable point, i.e. re-armed
   each retry) surfaces as Job_failed with the attempt count. *)
let test_poison_chain_exhausts_retries () =
  let dir = fresh_ckpt_dir () in
  Fun.protect ~finally:(fun () ->
      Failpoint.disarm ();
      rm_rf dir)
  @@ fun () ->
  let queries = [ (List.hd test_queries, Sql.parse (List.hd test_queries)) ] in
  let make ~chain = build_pdb ~seed:(950 + chain) () in
  let durability = wal_pool_durability ~dir ~seed:950 () in
  (* times = attempts + 1 > retry budget: every attempt dies at sample 5. *)
  Failpoint.arm ~times:3 ~name:"pool.sample" ~at:5 ();
  match
    Serve.Pool.evaluate ~chains:1 ~durability ~make ~queries ~thin:3 ~samples:8 ()
  with
  | _ -> Alcotest.fail "poison chain must exhaust its retry budget"
  | exception Mcmc.Parallel.Job_failed { index; attempts; exn } ->
    Alcotest.(check int) "chain index" 0 index;
    Alcotest.(check int) "attempts" 3 attempts;
    (match exn with
    | Failpoint.Injected { index = 5; _ } -> ()
    | e -> Alcotest.failf "unexpected exception %s" (Printexc.to_string e))

(* ------------------------------------------------------------------ *)
(* WAL: record codec, torn-tail recovery, delta-log durability *)

let join_sql = List.nth test_queries 2

(* qcheck: WAL records survive encode → decode → encode byte-identically,
   for random deltas over every value shape the grammar carries. *)
let gen_value =
  QCheck.Gen.(
    oneof
      [ return Value.Null;
        map (fun n -> Value.Int n) small_signed_int;
        map (fun f -> Value.Float f) (float_range (-1e6) 1e6);
        map (fun b -> Value.Bool b) bool;
        map (fun s -> Value.Text s) (string_size (int_bound 8)) ])

let gen_row = QCheck.Gen.(map Row.make (list_size (int_bound 4) gen_value))

let gen_entry =
  QCheck.Gen.(
    map2 (fun row c -> (row, if c >= 0 then c + 1 else c)) gen_row (int_range (-4) 3))

let gen_delta =
  QCheck.Gen.(
    list_size (int_bound 3)
      (map2 (fun t entries -> (t, entries))
         (oneofl [ "ITEM"; "TOKEN"; "LABEL" ])
         (list_size (int_bound 4) gen_entry)))

let gen_wal_record =
  QCheck.Gen.(
    frequency
      [ (4,
         map2
           (fun (steps, proposed, accepted) (rng, delta) ->
             Wal.Sample { steps; proposed; accepted; rng; delta })
           (triple (int_bound 10_000) (int_bound 10_000) (int_bound 10_000))
           (pair (string_size (int_bound 64)) gen_delta));
        (1,
         map2
           (fun id name -> Wal.Register { id; name; algebra = Sql.parse join_sql })
           (int_bound 100) (string_size (int_bound 16)));
        (1, map (fun id -> Wal.Unregister { id }) (int_bound 100));
        (1, map (fun delta -> Wal.Absorb { delta }) gen_delta) ])

let prop_wal_record_roundtrip =
  QCheck.Test.make ~name:"wal: record encode/decode/encode byte-identical" ~count:200
    (QCheck.make gen_wal_record)
    (fun record ->
      let payload = Wal.encode_record record in
      String.equal payload (Wal.encode_record (Wal.decode_record payload)))

let sample_records =
  [ Wal.Sample
      {
        steps = 40;
        proposed = 40;
        accepted = 11;
        rng = "rng-blob-one";
        delta =
          [ ("ITEM",
             [ (r [ Value.Int 0; Value.Text "blue" ], 1);
               (r [ Value.Int 0; Value.Text "red" ], -1) ]) ];
      };
    Wal.Register { id = 3; name = "late"; algebra = Sql.parse join_sql };
    Wal.Absorb { delta = [ ("ITEM", [ (r [ Value.Int 2; Value.Text "red" ], 1) ]) ] };
    Wal.Unregister { id = 3 };
    Wal.Sample { steps = 44; proposed = 44; accepted = 12; rng = "rng-blob-two"; delta = [] } ]

(* The file is exactly header ∥ frames, and truncating the log at *every*
   byte offset of the final frame recovers cleanly to the last whole
   record — the torn-tail guarantee. *)
let test_wal_torn_tail_recovery () =
  let path = Filename.temp_file "wal_test" ".wal" in
  Fun.protect ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ path; path ^ ".tmp" ])
  @@ fun () ->
  let w = Wal.create ~path ~base_samples:7 ~fsync_every:1 in
  List.iter (Wal.append w) sample_records;
  Alcotest.(check int) "appended" 5 (Wal.appended w);
  Wal.close w;
  let full = Codec.read_file ~path in
  let header = Wal.header ~base_samples:7 in
  let frames = List.map Wal.encode_frame sample_records in
  Alcotest.(check string) "file = header ∥ frames" (header ^ String.concat "" frames) full;
  Alcotest.(check int) "writer byte accounting" (String.length full) (Wal.bytes w);
  let rec_ = Wal.recover ~path in
  Alcotest.(check int) "base_samples" 7 rec_.Wal.base_samples;
  Alcotest.(check bool) "not torn" false rec_.Wal.torn;
  Alcotest.(check int) "valid to EOF" (String.length full) rec_.Wal.valid_bytes;
  Alcotest.(check (list string)) "all records recovered"
    (List.map Wal.encode_record sample_records)
    (List.map Wal.encode_record rec_.Wal.records);
  let last_start = String.length full - String.length (List.nth frames 4) in
  (* Ending exactly on the frame boundary is a clean file, not a torn one. *)
  ignore (Codec.write_file ~path (String.sub full 0 last_start) : int);
  let rec_ = Wal.recover ~path in
  Alcotest.(check bool) "boundary cut is clean" false rec_.Wal.torn;
  Alcotest.(check int) "boundary valid_bytes" last_start rec_.Wal.valid_bytes;
  for cut = last_start + 1 to String.length full - 1 do
    ignore (Codec.write_file ~path (String.sub full 0 cut) : int);
    let rec_ = Wal.recover ~path in
    Alcotest.(check bool) (Printf.sprintf "torn at %d" cut) true rec_.Wal.torn;
    Alcotest.(check int) (Printf.sprintf "valid_bytes at %d" cut) last_start
      rec_.Wal.valid_bytes;
    Alcotest.(check (list string)) (Printf.sprintf "records at %d" cut)
      (List.map Wal.encode_record (List.filteri (fun i _ -> i < 4) sample_records))
      (List.map Wal.encode_record rec_.Wal.records)
  done;
  (* Reopening for append truncates the torn tail; the next append starts
     at the last whole record. *)
  ignore (Codec.write_file ~path (String.sub full 0 (String.length full - 2)) : int);
  let rec_ = Wal.recover ~path in
  let w2 = Wal.open_append ~path ~valid_bytes:rec_.Wal.valid_bytes ~fsync_every:0 in
  Wal.append w2 (Wal.Unregister { id = 9 });
  Wal.close w2;
  let rec2 = Wal.recover ~path in
  Alcotest.(check bool) "clean after reopen" false rec2.Wal.torn;
  Alcotest.(check (list string)) "tail replaced by new record"
    (List.map Wal.encode_record
       (List.filteri (fun i _ -> i < 4) sample_records @ [ Wal.Unregister { id = 9 } ]))
    (List.map Wal.encode_record rec2.Wal.records)

(* Flipping any byte of a record's frame makes recovery stop before it —
   torn, not silently wrong — and header damage raises Corrupt. *)
let test_wal_corruption_detected () =
  let path = Filename.temp_file "wal_test" ".wal" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let w = Wal.create ~path ~base_samples:0 ~fsync_every:0 in
  List.iter (Wal.append w) sample_records;
  Wal.close w;
  let full = Codec.read_file ~path in
  let header_len = String.length (Wal.header ~base_samples:0) in
  let first_frame_len = String.length (Wal.encode_frame (List.hd sample_records)) in
  for i = header_len to header_len + first_frame_len - 1 do
    let broken = Bytes.of_string full in
    Bytes.set broken i (Char.chr (Char.code (Bytes.get broken i) lxor 0x20));
    ignore (Codec.write_file ~path (Bytes.to_string broken) : int);
    match Wal.recover ~path with
    | rec_ ->
      if not (Int.equal (List.length rec_.Wal.records) 0) then
        Alcotest.failf "flip at byte %d: corrupted first frame yielded records" i
    | exception Codec.Corrupt _ ->
      (* A length-byte flip can masquerade as a CRC-valid-but-undecodable
         frame only by colliding CRC-32, which a single bit flip cannot;
         Corrupt here would mean the scan misclassified a torn tail. *)
      Alcotest.failf "flip at byte %d inside a frame must read as torn, not Corrupt" i
  done;
  for i = 0 to header_len - 1 do
    let broken = Bytes.of_string full in
    Bytes.set broken i (Char.chr (Char.code (Bytes.get broken i) lxor 0x20));
    ignore (Codec.write_file ~path (Bytes.to_string broken) : int);
    match Wal.recover ~path with
    | _ -> Alcotest.failf "header flip at byte %d went undetected" i
    | exception Codec.Corrupt _ -> ()
  done

(* One supervised WAL run against its uninterrupted reference: kill the
   chain at a failpoint, let the supervisor restore it, and demand
   bit-identical marginals. Returns the replayed-record, bootstrap-eval,
   snapshot-restore, and supervised-retry counter deltas of the killed run
   (baselines taken after the reference run, which pays its own
   bootstraps). *)
let check_wal_run ~seed ~durability ~arm () =
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () ->
      Obs.Metrics.set_enabled false;
      Failpoint.disarm ())
  @@ fun () ->
  let queries = List.map (fun sql -> (sql, Sql.parse sql)) test_queries in
  let make ~chain = build_pdb ~seed:(seed + chain) () in
  let reference = Serve.Pool.evaluate ~chains:1 ~make ~queries ~thin:4 ~samples:14 () in
  let replays0 = counter_value "wal.replay_records" in
  let bootstraps0 = counter_value "serve.bootstrap_evals" in
  let restores0 = counter_value "checkpoint.restore.count" in
  let retries0 = counter_value "checkpoint.retry.count" in
  arm ();
  let survived =
    Serve.Pool.evaluate ~chains:1 ~durability ~make ~queries ~thin:4 ~samples:14 ()
  in
  List.iter2
    (fun (sql, _) (sql', m') ->
      Alcotest.(check string) "query order" sql sql';
      estimates_exactly_equal sql (List.assoc sql reference) m')
    queries survived;
  ( counter_value "wal.replay_records" - replays0,
    counter_value "serve.bootstrap_evals" - bootstraps0,
    counter_value "checkpoint.restore.count" - restores0,
    counter_value "checkpoint.retry.count" - retries0 )

(* Kill at sample 8: the retry must replay samples 1–7 from the log (the
   snapshot only covers sample 0) and pay zero bootstrap evaluations
   beyond the fresh start's. *)
let test_wal_kill_and_resume () =
  let dir = fresh_ckpt_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let replayed, bootstraps, restores, retries =
    check_wal_run ~seed:760
      ~durability:(wal_pool_durability ~dir ~seed:760 ())
      ~arm:(fun () -> Failpoint.arm ~name:"pool.sample" ~at:8 ())
      ()
  in
  Alcotest.(check int) "one supervised retry" 1 retries;
  Alcotest.(check int) "replayed the logged samples" 7 replayed;
  Alcotest.(check int) "one snapshot restore" 1 restores;
  Alcotest.(check int) "zero bootstrap evals on restore"
    (List.length test_queries) bootstraps

(* Crash between compaction's snapshot write and... before it ("wal.compact"),
   and between the write and the log rotation ("wal.rotate") — both leave a
   recoverable snapshot/log pair. compact_ratio 0.01 forces a rotation on
   every sample so the failpoints sit in the live path. *)
let test_wal_crash_mid_compaction () =
  let dir = fresh_ckpt_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  ignore
    (check_wal_run ~seed:770
       ~durability:(wal_pool_durability ~dir ~compact_ratio:0.01 ~seed:770 ())
       ~arm:(fun () -> Failpoint.arm ~name:"wal.compact" ~at:3 ())
       ()
      : int * int * int * int)

let test_wal_crash_mid_rotation () =
  let dir = fresh_ckpt_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let replayed, _, restores, _ =
    check_wal_run ~seed:780
      ~durability:(wal_pool_durability ~dir ~compact_ratio:0.01 ~seed:780 ())
      ~arm:(fun () -> Failpoint.arm ~name:"wal.rotate" ~at:2 ())
      ()
  in
  (* The crash hit after the sample-1 snapshot was saved but before the
     log rotated: the log's only record is already inside the snapshot
     and must be skipped, not re-applied. *)
  Alcotest.(check int) "snapshot already covers the log" 0 replayed;
  Alcotest.(check int) "one snapshot restore" 1 restores

(* Crash mid-append: half a frame lands on disk, durably. Recovery must
   truncate it and resume from the last whole record. *)
let test_wal_crash_torn_append () =
  let dir = fresh_ckpt_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let replayed, _, _, _ =
    check_wal_run ~seed:790
      ~durability:(wal_pool_durability ~dir ~seed:790 ())
      ~arm:(fun () -> Failpoint.arm ~name:"wal.torn_append" ~at:5 ())
      ()
  in
  (* The 5th record died mid-write: samples 1–4 replay from the log. *)
  Alcotest.(check int) "replayed up to the torn frame" 4 replayed

(* --resume over WAL state: a completed run's directory resumes with
   nothing to replay and returns the identical answer without rebuilding. *)
let test_wal_resume_previous_process () =
  let dir = fresh_ckpt_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let queries = List.map (fun sql -> (sql, Sql.parse sql)) test_queries in
  let make ~chain = build_pdb ~seed:(810 + chain) () in
  let durability = wal_pool_durability ~dir ~seed:810 () in
  let first =
    Serve.Pool.evaluate ~chains:1 ~durability ~make ~queries ~thin:3 ~samples:12 ()
  in
  let durability = { durability with resume = true } in
  let poisoned_make ~chain:_ = Alcotest.fail "resume must not rebuild the chain" in
  let second =
    Serve.Pool.evaluate ~chains:1 ~durability ~make:poisoned_make ~queries ~thin:3
      ~samples:12 ()
  in
  List.iter2 (fun (sql, m) (_, m') -> estimates_exactly_equal sql m m') first second

(* Mid-run register/unregister flow through the log as events: a crashed
   chain replays them (paying the late query's bootstrap again) and lands
   bit-identical to an uninterrupted twin. *)
let test_wal_register_replay () =
  let dir = fresh_ckpt_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let seed = 4242 in
  let first_sql = List.hd test_queries in
  let steps reg n = for _ = 1 to n do Serve.Registry.step reg ~thin:3 done in
  (* Uninterrupted twin. *)
  let reg_a = Serve.Registry.create (build_pdb ~seed ()) in
  let a0 = Serve.Registry.register_sql reg_a first_sql in
  steps reg_a 4;
  let a1 = Serve.Registry.register_sql reg_a join_sql in
  steps reg_a 4;
  ignore (Serve.Registry.unregister reg_a a0 : Marginals.t);
  steps reg_a 4;
  (* Durable chain, crashed two samples after the unregister. *)
  let snap_path = Filename.concat dir "chain.ckpt" in
  let wal_path = Filename.concat dir "chain.wal" in
  let policy = { Serve.Durable.fsync_every = 1; compact_ratio = 1e9 } in
  let reg_b = Serve.Registry.create (build_pdb ~seed ()) in
  let b0 = Serve.Registry.register_sql reg_b first_sql in
  let (_ : Serve.Durable.t) = Serve.Durable.start ~snap_path ~wal_path policy reg_b in
  let dstep reg n =
    for _ = 1 to n do
      Serve.Registry.step reg ~thin:3
    done
  in
  dstep reg_b 4;
  ignore (Serve.Registry.register_sql reg_b join_sql : Serve.Registry.query_id);
  dstep reg_b 4;
  ignore (Serve.Registry.unregister reg_b b0 : Marginals.t);
  dstep reg_b 2;
  (* Crash: drop the durable handle without closing — every record is on
     disk (fsync_every = 1), the writer's open descriptor simply dies. *)
  let dur2 =
    Serve.Durable.resume ~snap_path ~wal_path policy
      ~make_pdb:(fun db -> pdb_over_db ~n_items:4 ~seed db)
  in
  let reg_b' = Serve.Durable.registry dur2 in
  Alcotest.(check int) "samples replayed" 10 (Serve.Registry.samples reg_b');
  Alcotest.(check int) "one live query" 1 (Serve.Registry.query_count reg_b');
  for _ = 1 to 2 do
    Serve.Registry.step reg_b' ~thin:3
  done;
  Serve.Durable.close dur2;
  let b1 = fst (List.hd (Serve.Registry.queries reg_b')) in
  estimates_exactly_equal "late-registered query"
    (Serve.Registry.marginals reg_a a1)
    (Serve.Registry.marginals reg_b' b1)

(* Compaction is part of Registry.step: a durable registry that is only
   stepped compacts on its own, and a crash injected at a step-time
   compaction ("wal.compact@2" — ordinal 1 is start's snapshot) raises
   out of Registry.step and resumes bit-identical to an uninterrupted
   twin. compact_ratio 0.3 puts a compaction every few samples. *)
let test_wal_step_driven_compaction () =
  let dir = fresh_ckpt_dir () in
  Fun.protect
    ~finally:(fun () ->
      Failpoint.disarm ();
      rm_rf dir)
  @@ fun () ->
  let seed = 4343 and samples = 12 in
  let policy = { Serve.Durable.fsync_every = 1; compact_ratio = 0.3 } in
  let path name = Filename.concat dir name in
  let twin = make_registry ~seed () in
  Serve.Registry.run twin ~thin:3 ~samples;
  let check_twin reg =
    List.iter2
      (fun (id, name) (id', _) ->
        estimates_exactly_equal name (Serve.Registry.marginals twin id)
          (Serve.Registry.marginals reg id'))
      (Serve.Registry.queries twin) (Serve.Registry.queries reg)
  in
  (* Stepping alone compacts. *)
  let reg = make_registry ~seed () in
  let dur =
    Serve.Durable.start ~snap_path:(path "live.ckpt") ~wal_path:(path "live.wal") policy reg
  in
  let started = Serve.Durable.compactions dur in
  Serve.Registry.run reg ~thin:3 ~samples;
  let stepped = Serve.Durable.compactions dur - started in
  Alcotest.(check bool) "compacted by stepping alone" true (stepped >= 2);
  check_twin reg;
  Serve.Durable.close dur;
  (* The same chain, killed by the first step-time compaction. *)
  let snap_path = path "crash.ckpt" and wal_path = path "crash.wal" in
  let reg = make_registry ~seed () in
  let (_ : Serve.Durable.t) = Serve.Durable.start ~snap_path ~wal_path policy reg in
  Failpoint.arm ~name:"wal.compact" ~at:2 ();
  (match Serve.Registry.run reg ~thin:3 ~samples with
  | () -> Alcotest.fail "wal.compact@2 never fired"
  | exception Failpoint.Injected { name = "wal.compact"; index = 2 } -> ());
  let crashed_at = Serve.Registry.samples reg in
  Alcotest.(check bool) "crash after several logged samples" true (crashed_at > 1);
  let dur2 =
    Serve.Durable.resume ~snap_path ~wal_path policy
      ~make_pdb:(fun db -> pdb_over_db ~n_items:4 ~seed db)
  in
  let reg' = Serve.Durable.registry dur2 in
  Alcotest.(check int) "replayed up to the crash" crashed_at (Serve.Registry.samples reg');
  Serve.Registry.run reg' ~thin:3 ~samples:(samples - crashed_at);
  Serve.Durable.close dur2;
  check_twin reg'

(* The point of the log: per-sample durable bytes are small against the
   snapshot the old path rewrote every period (the paper's |Δ| ≪ |D|,
   applied to disk). The paper-scale version of this assertion lives in
   the wal bench + the bench gate's floors (bench/gate/gate.ml). *)
let test_wal_write_amplification () =
  let dir = fresh_ckpt_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let reg = make_registry ~seed:888 () in
  let policy = { Serve.Durable.fsync_every = 5; compact_ratio = 1e9 } in
  let dur =
    Serve.Durable.start ~snap_path:(Filename.concat dir "c.ckpt")
      ~wal_path:(Filename.concat dir "c.wal") policy reg
  in
  let samples = 30 in
  for _ = 1 to samples do
    Serve.Registry.step reg ~thin:3
  done;
  let header_len = String.length (Wal.header ~base_samples:0) in
  let per_sample = (Serve.Durable.wal_bytes dur - header_len) / samples in
  let snap = Serve.Durable.snapshot_bytes dur in
  Serve.Durable.close dur;
  if per_sample <= 0 || per_sample >= snap then
    Alcotest.failf "WAL bytes/sample %d not small against snapshot bytes %d" per_sample
      snap

(* docs/DURABILITY.md is normative: parse its layout tables and check
   magic, version, and the record-kind table against the implementation,
   then check the header/frame layout prose against the encoders' actual
   bytes. This is what keeps the spec and the codec from drifting apart
   silently — the doc is a build dependency of this test (test/dune). *)
let read_durability_doc () =
  let candidates = [ "../docs/DURABILITY.md"; "docs/DURABILITY.md" ] in
  match List.find_opt Sys.file_exists candidates with
  | None -> Alcotest.fail "docs/DURABILITY.md not found (declared in test/dune deps)"
  | Some path ->
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))

(* Markdown table rows as trimmed cell lists, outer pipes dropped. *)
let doc_table_rows doc =
  String.split_on_char '\n' doc
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if String.length line >= 2 && line.[0] = '|' then
           Some
             (String.split_on_char '|' line
             |> List.map String.trim
             |> List.filter (fun c -> String.length c > 0))
         else None)

let backtick_content s =
  match String.index_opt s '`' with
  | None -> None
  | Some i -> (
      match String.index_from_opt s (i + 1) '`' with
      | None -> None
      | Some j -> Some (String.sub s (i + 1) (j - i - 1)))

let crc_le s =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Codec.crc32 s);
  Bytes.to_string b

let test_wal_doc_matches_codec () =
  let rows = doc_table_rows (read_durability_doc ()) in
  let field_value name =
    match
      List.find_opt (fun cells -> match cells with c0 :: _ -> String.equal c0 name | [] -> false) rows
    with
    | Some cells -> (
        match List.filter_map backtick_content cells with
        | v :: _ -> v
        | [] -> Alcotest.failf "doc row %S has no backticked value" name)
    | None -> Alcotest.failf "doc has no %S header-layout row" name
  in
  (* Header-layout table vs format constants. *)
  Alcotest.(check string) "doc magic" Wal.magic (field_value "magic");
  Alcotest.(check int) "doc version" Wal.version
    (int_of_string (field_value "version"));
  (* Record-kind table vs Wal.kind_tags: rows whose first two cells are a
     backticked integer and a backticked name (the value-tag table in
     §6.1 has plain-text type names, so it does not match). *)
  let doc_kinds =
    List.filter_map
      (fun cells ->
        match cells with
        | c0 :: c1 :: _ -> (
            match (backtick_content c0, backtick_content c1) with
            | Some tag, Some name -> (
                match int_of_string_opt tag with
                | Some t -> Some (t, name)
                | None -> None)
            | _ -> None)
        | _ -> None)
      rows
  in
  Alcotest.(check (list (pair int string)))
    "doc record-kind table = Wal.kind_tags" Wal.kind_tags doc_kinds;
  (* §4 header layout vs the encoder: magic ∥ version u8 ∥ uvarint
     base-samples ∥ CRC-32 LE over the preceding bytes. *)
  let h = Wal.header ~base_samples:300 in
  let mlen = String.length Wal.magic in
  Alcotest.(check string) "header magic bytes" Wal.magic (String.sub h 0 mlen);
  Alcotest.(check int) "header version byte" Wal.version (Char.code h.[mlen]);
  let rd = Codec.R.of_string (String.sub h (mlen + 1) (String.length h - mlen - 1 - 4)) in
  Alcotest.(check int) "header base-samples uvarint" 300 (Codec.R.uvarint rd);
  Alcotest.(check bool) "header base-samples ends before CRC" true (Codec.R.at_end rd);
  let prefix = String.sub h 0 (String.length h - 4) in
  Alcotest.(check string) "header trailing CRC-32 LE" (crc_le prefix)
    (String.sub h (String.length h - 4) 4);
  (* §5 frame layout vs the encoder: uvarint payload-length ∥ payload ∥
     CRC-32 LE over length bytes and payload — i.e. string(payload) then
     its CRC — and §6: the payload leads with the kind byte. *)
  let record =
    Wal.Sample
      { steps = 12; proposed = 12; accepted = 5; rng = "rngblob";
        delta = [ ("LABEL", [ (r [ Value.Int 1 ], 1) ]) ] }
  in
  let payload = Wal.encode_record record in
  Alcotest.(check int) "payload kind byte" (Wal.kind_tag record)
    (Char.code payload.[0]);
  let w = Codec.W.create () in
  Codec.W.string w payload;
  let body = Codec.W.contents w in
  Alcotest.(check string) "frame = string(payload) ∥ CRC-32 LE"
    (body ^ crc_le body)
    (Wal.encode_frame record)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "checkpoint"
    [ ("codec",
       [ Alcotest.test_case "primitives-roundtrip" `Quick test_codec_roundtrip;
         Alcotest.test_case "corruption-detected" `Quick test_frame_detects_corruption;
         Alcotest.test_case "atomic-write" `Quick test_atomic_write ]);
      ("snapshot",
       [ qc prop_snapshot_roundtrip_byte_identical;
         Alcotest.test_case "restore-continues-stream" `Quick test_restore_continues_stream;
         Alcotest.test_case "file-corruption-detected" `Quick
           test_snapshot_file_corruption_detected;
         Alcotest.test_case "restore-db-shape" `Quick test_restore_db_shape ]);
      ("failpoint",
       [ Alcotest.test_case "one-shot" `Quick test_failpoint_one_shot;
         Alcotest.test_case "env-spec" `Quick test_failpoint_env ]);
      ("supervision",
       [ Alcotest.test_case "kill-before-first-checkpoint" `Quick
           test_kill_before_first_checkpoint;
         Alcotest.test_case "poison-chain" `Quick test_poison_chain_exhausts_retries ]);
      ("wal",
       [ qc prop_wal_record_roundtrip;
         Alcotest.test_case "torn-tail-recovery" `Quick test_wal_torn_tail_recovery;
         Alcotest.test_case "corruption-detected" `Quick test_wal_corruption_detected;
         Alcotest.test_case "kill-and-resume-bit-identical" `Quick
           test_wal_kill_and_resume;
         Alcotest.test_case "crash-mid-compaction" `Quick test_wal_crash_mid_compaction;
         Alcotest.test_case "crash-mid-rotation" `Quick test_wal_crash_mid_rotation;
         Alcotest.test_case "crash-torn-append" `Quick test_wal_crash_torn_append;
         Alcotest.test_case "resume-previous-process" `Quick
           test_wal_resume_previous_process;
         Alcotest.test_case "register-replay" `Quick test_wal_register_replay;
         Alcotest.test_case "step-driven-compaction" `Quick test_wal_step_driven_compaction;
         Alcotest.test_case "write-amplification" `Quick test_wal_write_amplification;
         Alcotest.test_case "doc-matches-codec" `Quick test_wal_doc_matches_codec ]) ]
