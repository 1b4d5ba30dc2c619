(* Tests for the observability layer: histogram bucketing, registry
   reset, determinism of counters under parallel (multi-domain) updates,
   trace ring behaviour, snapshot JSON, and the headline regression — the
   materialized evaluator's per-step delta is small relative to the table
   it maintains a view over. *)

let with_metrics f =
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled false) f

(* A counter's current value, read through the registry snapshot. *)
let counter_value reg name =
  match Obs.Metrics.find reg name with
  | Some (Obs.Metrics.Counter n) -> n
  | _ -> Alcotest.failf "no counter %s" name

(* ------------------------------------------------------------------ *)
(* Histogram bucketing *)

let test_bucket_index () =
  Alcotest.(check int) "<=0 goes to bucket 0" 0 (Obs.Metrics.bucket_index 0);
  Alcotest.(check int) "negative goes to bucket 0" 0 (Obs.Metrics.bucket_index (-5));
  Alcotest.(check int) "1" 1 (Obs.Metrics.bucket_index 1);
  Alcotest.(check int) "2" 2 (Obs.Metrics.bucket_index 2);
  Alcotest.(check int) "3" 2 (Obs.Metrics.bucket_index 3);
  Alcotest.(check int) "4" 3 (Obs.Metrics.bucket_index 4);
  Alcotest.(check int) "7" 3 (Obs.Metrics.bucket_index 7);
  Alcotest.(check int) "8" 4 (Obs.Metrics.bucket_index 8);
  Alcotest.(check int) "1024 = 2^10" 11 (Obs.Metrics.bucket_index 1024);
  Alcotest.(check int) "1025" 11 (Obs.Metrics.bucket_index 1025)

let test_bucket_bounds () =
  Alcotest.(check (pair int int)) "bucket 1" (1, 1) (Obs.Metrics.bucket_bounds 1);
  Alcotest.(check (pair int int)) "bucket 2" (2, 3) (Obs.Metrics.bucket_bounds 2);
  Alcotest.(check (pair int int)) "bucket 3" (4, 7) (Obs.Metrics.bucket_bounds 3);
  Alcotest.(check (pair int int)) "bucket 11" (1024, 2047) (Obs.Metrics.bucket_bounds 11)

let prop_bucket_contains =
  QCheck.Test.make ~name:"bucket bounds contain the sample" ~count:500
    QCheck.(int_range 1 max_int)
    (fun v ->
      let lo, hi = Obs.Metrics.bucket_bounds (Obs.Metrics.bucket_index v) in
      lo <= v && v <= hi)

let prop_buckets_adjacent =
  QCheck.Test.make ~name:"buckets tile the positive integers" ~count:60
    QCheck.(int_range 1 60)
    (fun k ->
      let _, hi = Obs.Metrics.bucket_bounds k in
      let lo', _ = Obs.Metrics.bucket_bounds (k + 1) in
      lo' = hi + 1)

let test_histogram_observe () =
  with_metrics @@ fun () ->
  let reg = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram ~reg "t.h" in
  List.iter (Obs.Metrics.observe h) [ 1; 1; 2; 3; 100; 0 ];
  Alcotest.(check int) "count" 6 (Obs.Metrics.hist_count h);
  Alcotest.(check int) "sum is exact" 107 (Obs.Metrics.hist_sum h);
  Alcotest.(check int) "max" 100 (Obs.Metrics.hist_max h);
  Alcotest.(check (float 1e-9)) "mean" (107. /. 6.) (Obs.Metrics.hist_mean h);
  let total = List.fold_left (fun acc (_, _, c) -> acc + c) 0 (Obs.Metrics.hist_buckets h) in
  Alcotest.(check int) "bucket counts sum to count" 6 total;
  (* Quantile is the upper bound of the bucket holding the rank-⌈qn⌉ sample:
     rank 3 of {0,1,1,2,3,100} is 1, whose bucket is [1,1]. *)
  Alcotest.(check int) "p50 bucket hi" 1 (Obs.Metrics.quantile h 0.5);
  Alcotest.(check bool) "p100 >= max's bucket lo" true (Obs.Metrics.quantile h 1.0 >= 100)

let test_disabled_is_noop () =
  Obs.Metrics.set_enabled false;
  let reg = Obs.Metrics.create () in
  let c = Obs.Metrics.counter ~reg "t.c" in
  let h = Obs.Metrics.histogram ~reg "t.h" in
  Obs.Metrics.incr c;
  Obs.Metrics.add c 42;
  Obs.Metrics.observe h 7;
  Alcotest.(check int) "counter untouched" 0 (counter_value reg "t.c");
  Alcotest.(check int) "histogram untouched" 0 (Obs.Metrics.hist_count h)

(* ------------------------------------------------------------------ *)
(* Registries: find-or-create, kind mismatch, reset *)

let test_intern_semantics () =
  let reg = Obs.Metrics.create () in
  let a = Obs.Metrics.counter ~reg "same.name" in
  let b = Obs.Metrics.counter ~reg "same.name" in
  with_metrics (fun () ->
      Obs.Metrics.incr a;
      Obs.Metrics.incr b);
  Alcotest.(check int) "two handles, one metric" 2 (counter_value reg "same.name");
  Alcotest.check_raises "kind mismatch rejected"
    (Invalid_argument "Obs.Metrics: \"same.name\" is a counter, not a gauge") (fun () ->
      ignore (Obs.Metrics.gauge ~reg "same.name"))

let test_reset () =
  with_metrics @@ fun () ->
  let a = Obs.Metrics.create () in
  Obs.Metrics.add (Obs.Metrics.counter ~reg:a "c") 42;
  let h = Obs.Metrics.histogram ~reg:a "h" in
  Obs.Metrics.observe h 4;
  Obs.Metrics.reset a;
  Alcotest.(check int) "reset zeroes counters" 0 (counter_value a "c");
  Alcotest.(check int) "reset empties histograms" 0 (Obs.Metrics.hist_count h);
  (* Old handles survive a reset. *)
  Obs.Metrics.incr (Obs.Metrics.counter ~reg:a "c");
  Alcotest.(check int) "handle still live after reset" 1 (counter_value a "c")

(* ------------------------------------------------------------------ *)
(* Determinism of counters under multi-domain parallelism *)

let test_parallel_counter_determinism () =
  with_metrics @@ fun () ->
  let run () =
    let reg = Obs.Metrics.create () in
    let c = Obs.Metrics.counter ~reg "par.c" in
    let h = Obs.Metrics.histogram ~reg "par.h" in
    let results =
      Mcmc.Parallel.map ~n:16 (fun i ->
          for _ = 1 to 1_000 do
            Obs.Metrics.incr c
          done;
          Obs.Metrics.observe h (i + 1);
          i)
    in
    Alcotest.(check (list int)) "results in order" (List.init 16 Fun.id) results;
    (counter_value reg "par.c", Obs.Metrics.hist_count h, Obs.Metrics.hist_sum h)
  in
  let c1, n1, s1 = run () in
  let c2, n2, s2 = run () in
  Alcotest.(check int) "no lost increments across domains" 16_000 c1;
  Alcotest.(check int) "every observation lands" 16 n1;
  Alcotest.(check int) "sum 1..16" 136 s1;
  Alcotest.(check (list int)) "identical across repeats" [ c1; n1; s1 ] [ c2; n2; s2 ]

let test_metropolis_counters () =
  with_metrics @@ fun () ->
  Obs.Metrics.reset Obs.Metrics.global;
  let { Factorgraph.Templates.graph; _ } =
    Factorgraph.Templates.unroll_chain ~skip_edges:true
      ~params:(Ie.Crf.default_params ()) ~label_domain:Ie.Labels.domain
      ~tokens:[| "Bill"; "saw"; "IBM" |] ()
  in
  let world = Mcmc.Graph_model.world_of graph in
  let rng = Mcmc.Rng.create 3 in
  let stats = Mcmc.Metropolis.fresh_stats () in
  Mcmc.Metropolis.run ~stats rng (Mcmc.Graph_model.flip ()) world ~steps:500;
  let c name =
    match Obs.Metrics.find Obs.Metrics.global name with
    | Some (Obs.Metrics.Counter n) -> n
    | _ -> -1
  in
  Alcotest.(check int) "proposals counter = steps" 500 (c "mcmc.proposals");
  Alcotest.(check int) "accepts counter = stats" stats.Mcmc.Metropolis.accepted
    (c "mcmc.accepts");
  Alcotest.(check bool) "score time accumulated" true (c "mcmc.score_ns" >= 0)

(* ------------------------------------------------------------------ *)
(* Trace ring *)

let test_trace_ring () =
  Obs.Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.set_enabled false;
      Obs.Trace.set_capacity 1024)
    (fun () ->
      Obs.Trace.set_capacity 4;
      let seen = ref [] in
      Obs.Trace.set_sink (Obs.Trace.Custom (fun e -> seen := e.Obs.Trace.name :: !seen));
      for i = 1 to 6 do
        Obs.Trace.emit ~args:[ ("i", string_of_int i) ] "t.event"
      done;
      let names = List.map (fun e -> List.assoc "i" e.Obs.Trace.args) (Obs.Trace.recent ()) in
      Alcotest.(check (list string)) "ring keeps the last capacity events"
        [ "3"; "4"; "5"; "6" ] names;
      Alcotest.(check int) "sink saw every event" 6 (List.length !seen);
      Obs.Trace.set_sink Obs.Trace.Null;
      let e = List.hd (Obs.Trace.recent ()) in
      (match Obs.Jsonx.parse (Obs.Trace.to_json e) with
      | Obs.Jsonx.Obj
          [ ("ts_ns", Obs.Jsonx.Num _);
            ("name", Obs.Jsonx.Str "t.event");
            ("args", Obs.Jsonx.Obj [ ("i", Obs.Jsonx.Str "3") ]) ] ->
        ()
      | _ -> Alcotest.fail "trace event does not parse back to its fields"))

(* ------------------------------------------------------------------ *)
(* Snapshot JSON *)

let test_snapshot_json () =
  with_metrics @@ fun () ->
  let reg = Obs.Metrics.create () in
  Obs.Metrics.add (Obs.Metrics.counter ~reg "eval.full_query_ns") 1_000_000;
  Obs.Metrics.add (Obs.Metrics.counter ~reg "eval.full_query_count") 10;
  Obs.Metrics.add (Obs.Metrics.counter ~reg "eval.maintain_ns") 10_000;
  Obs.Metrics.add (Obs.Metrics.counter ~reg "eval.maintain_count") 10;
  Obs.Metrics.observe (Obs.Metrics.histogram ~reg "h \"quoted\"") 3;
  let json = Obs.Jsonx.parse (Obs.Snapshot.to_json ~meta:[ ("cmd", "test") ] reg) in
  let at path =
    List.fold_left (fun v k -> Option.bind v (fun v -> Obs.Jsonx.field v k)) (Some json) path
  in
  Alcotest.(check bool) "counter" true
    (at [ "metrics"; "eval.full_query_ns" ] = Some (Obs.Jsonx.Num 1_000_000.));
  Alcotest.(check bool) "derived speedup field" true
    (at [ "derived"; "eval.materialized_speedup" ] = Some (Obs.Jsonx.Num 100.));
  Alcotest.(check bool) "quoted histogram name round-trips" true
    (at [ "metrics"; "h \"quoted\""; "count" ] = Some (Obs.Jsonx.Num 1.));
  Alcotest.(check bool) "meta" true (at [ "meta"; "cmd" ] = Some (Obs.Jsonx.Str "test"));
  let speedup = List.assoc "eval.materialized_speedup" (Obs.Snapshot.derived reg) in
  Alcotest.(check (float 1e-9)) "derived speedup" 100. speedup

(* ------------------------------------------------------------------ *)
(* Jsonx: the reader inverts the writer and follows RFC 8259 *)

let gen_json =
  let open QCheck.Gen in
  (* Control characters, quotes, backslashes and high bytes, which the
     writer escapes or passes through. *)
  let text =
    string_size ~gen:(oneof [ char; oneofl [ '"'; '\\'; '\n'; '\000'; '\031' ] ]) (int_bound 12)
  in
  let number =
    oneof
      [ map float_of_int int;
        map (fun x -> if Float.is_finite x then x else 0.) float;
        map (fun x -> x /. 1000.) (float_bound_inclusive 1000.) ]
  in
  sized_size (int_bound 4)
  @@ fix (fun self depth ->
         let leaf =
           oneof
             [ return Obs.Jsonx.Null;
               map (fun b -> Obs.Jsonx.Bool b) bool;
               map (fun x -> Obs.Jsonx.Num x) number;
               map (fun s -> Obs.Jsonx.Str s) text ]
         in
         if depth = 0 then leaf
         else
           oneof
             [ leaf;
               map (fun l -> Obs.Jsonx.Arr l) (list_size (int_bound 4) (self (depth - 1)));
               map
                 (fun l -> Obs.Jsonx.Obj l)
                 (list_size (int_bound 4) (pair text (self (depth - 1)))) ])

let prop_jsonx_roundtrip =
  QCheck.Test.make ~name:"jsonx: parse (to_string v) = v" ~count:500
    (QCheck.make gen_json ~print:Obs.Jsonx.to_string)
    (fun v -> Obs.Jsonx.parse (Obs.Jsonx.to_string v) = v)

let rejects input () =
  match Obs.Jsonx.parse input with
  | v -> Alcotest.failf "accepted %S as %s" input (Obs.Jsonx.to_string v)
  | exception Obs.Jsonx.Parse_error _ -> ()

let test_surrogate_pair () =
  Alcotest.(check bool) "U+1F600 decodes to its 4-byte UTF-8" true
    (Obs.Jsonx.parse {|"\ud83d\ude00"|} = Obs.Jsonx.Str "\xF0\x9F\x98\x80")

let test_lone_surrogates () =
  List.iter
    (fun s -> rejects s ())
    [ {|"\ud83d"|}; {|"\ud83dx"|}; {|"\ud83d\u0041"|}; {|"\ude00"|} ]

(* ------------------------------------------------------------------ *)
(* Regression: view maintenance consumes deltas far smaller than the table
   it maintains over, on the NER workload (the |Δ| ≪ |w| premise of Eq. 6
   and Fig 4a). *)

let test_delta_rows_much_smaller_than_table () =
  with_metrics @@ fun () ->
  Obs.Metrics.reset Obs.Metrics.global;
  let docs = Ie.Corpus.generate_tokens ~seed:42 ~n_tokens:2_000 in
  let db = Relational.Database.create () in
  ignore (Ie.Token_table.load db docs : Relational.Table.t);
  let world = Core.World.create db in
  let crf = Ie.Crf.create ~params:(Ie.Crf.default_params ()) world in
  let rng = Mcmc.Rng.create 9 in
  let pdb = Core.Pdb.create ~world ~proposal:(Ie.Proposals.batched_flip ~rng crf) ~rng in
  let query = Relational.Sql.parse "SELECT STRING FROM TOKEN WHERE LABEL='B-PER'" in
  let samples = 40 in
  let _ =
    Core.Evaluator.evaluate Core.Evaluator.Materialized pdb ~query ~thin:200 ~samples
  in
  let c name =
    match Obs.Metrics.find Obs.Metrics.global name with
    | Some (Obs.Metrics.Counter n) -> n
    | _ -> 0
  in
  let table_rows =
    match Obs.Metrics.find Obs.Metrics.global "eval.table_rows" with
    | Some (Obs.Metrics.Gauge g) -> g
    | _ -> 0.
  in
  let delta_rows = c "eval.delta_rows" and maintains = c "eval.maintain_count" in
  Alcotest.(check int) "one maintenance per sample" samples maintains;
  Alcotest.(check bool) "deltas flowed" true (delta_rows > 0);
  Alcotest.(check bool) "table size recorded" true (table_rows > 1_000.);
  let avg_delta = float_of_int delta_rows /. float_of_int maintains in
  Alcotest.(check bool)
    (Printf.sprintf "avg delta %.1f rows ≪ table %.0f rows" avg_delta table_rows)
    true
    (avg_delta < table_rows /. 10.)

(* ------------------------------------------------------------------ *)
(* Timer: the published clock never decreases, even when the raw wall
   clock (gettimeofday, the only clock this toolchain exposes) steps
   backwards under it — Timer.clamp is the monotonization step of now_ns,
   exposed so the backwards step can be simulated deterministically. *)

let test_timer_monotonic_clamp () =
  let a = Obs.Timer.now_ns () in
  Alcotest.(check bool) "backwards raw reading is clamped" true
    (Obs.Timer.clamp (a - 1_000_000_000) >= a);
  let b = Obs.Timer.now_ns () in
  Alcotest.(check bool) "now_ns non-decreasing after the step" true (b >= a);
  let c = Obs.Timer.clamp (b + 10) in
  Alcotest.(check bool) "forward raw reading advances" true (c >= b + 10);
  Alcotest.(check bool) "now_ns reflects the advance" true (Obs.Timer.now_ns () >= c);
  (* Spans measured across a simulated backwards step are zero, never
     negative. *)
  let t0 = Obs.Timer.start () in
  ignore (Obs.Timer.clamp (a - 5_000_000_000) : int);
  Alcotest.(check bool) "elapsed never negative" true (Obs.Timer.elapsed_ns t0 >= 0)

let test_timer_monotonic_across_domains () =
  (* All domains share the high-water mark: each domain's local sequence of
     now_ns readings must be non-decreasing. *)
  let ok =
    Mcmc.Parallel.map ~n:4 (fun _ ->
        let prev = ref 0 in
        let ok = ref true in
        for _ = 1 to 10_000 do
          let t = Obs.Timer.now_ns () in
          if t < !prev then ok := false;
          prev := t
        done;
        !ok)
  in
  Alcotest.(check (list bool)) "monotone in every domain" [ true; true; true; true ] ok

let () =
  Alcotest.run "obs"
    [ ( "histogram",
        [ Alcotest.test_case "bucket index" `Quick test_bucket_index;
          Alcotest.test_case "bucket bounds" `Quick test_bucket_bounds;
          QCheck_alcotest.to_alcotest prop_bucket_contains;
          QCheck_alcotest.to_alcotest prop_buckets_adjacent;
          Alcotest.test_case "observe" `Quick test_histogram_observe;
          Alcotest.test_case "disabled is a no-op" `Quick test_disabled_is_noop ] );
      ( "registry",
        [ Alcotest.test_case "find-or-create" `Quick test_intern_semantics;
          Alcotest.test_case "reset" `Quick test_reset ] );
      ( "parallel",
        [ Alcotest.test_case "counters deterministic across domains" `Quick
            test_parallel_counter_determinism;
          Alcotest.test_case "metropolis counters" `Quick test_metropolis_counters ] );
      ( "timer",
        [ Alcotest.test_case "monotonic clamp" `Quick test_timer_monotonic_clamp;
          Alcotest.test_case "monotonic across domains" `Quick
            test_timer_monotonic_across_domains ] );
      ("trace", [ Alcotest.test_case "ring and sinks" `Quick test_trace_ring ]);
      ("snapshot", [ Alcotest.test_case "json shape" `Quick test_snapshot_json ]);
      ( "jsonx",
        [ QCheck_alcotest.to_alcotest prop_jsonx_roundtrip;
          Alcotest.test_case "surrogate pair" `Quick test_surrogate_pair;
          Alcotest.test_case "lone surrogate" `Quick test_lone_surrogates;
          Alcotest.test_case "underscore in \\u escape" `Quick (rejects {|"\u00_4"|});
          Alcotest.test_case "leading plus" `Quick (rejects "+1");
          Alcotest.test_case "leading zero" `Quick (rejects "01");
          Alcotest.test_case "bare fraction" `Quick (rejects ".5");
          Alcotest.test_case "overflow to infinity" `Quick (rejects "1e400") ] );
      ( "regression",
        [ Alcotest.test_case "delta_rows ≪ table_rows on NER workload" `Quick
            test_delta_rows_much_smaller_than_table ] ) ]
