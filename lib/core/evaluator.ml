open Relational

type strategy = Naive | Materialized

type progress = {
  sample : int;
  elapsed : float;
  marginals : Marginals.t;
}

let strategy_name = function Naive -> "naive" | Materialized -> "materialized"

(* Observability (docs/OBSERVABILITY.md): the evaluation-side cost split of
   Fig 4a. Algorithm 3 pays "eval.full_query_ns" per sampled world;
   Algorithm 1 pays "eval.view_build_ns" once plus "eval.maintain_ns" per
   sampled world, driven by deltas whose cardinality is recorded both as a
   running total ("eval.delta_rows") and as a distribution
   ("eval.delta_size"). Every single-query driver (evaluate, Adaptive,
   Topk_eval, the bench harness) counts here because they all step
   through [start]/[observe]. *)
let m_samples = Obs.Metrics.counter "eval.samples"
let m_full_query_count = Obs.Metrics.counter "eval.full_query_count"
let m_full_query_ns = Obs.Metrics.counter "eval.full_query_ns"
let m_maintain_count = Obs.Metrics.counter "eval.maintain_count"
let m_maintain_ns = Obs.Metrics.counter "eval.maintain_ns"
let m_view_build_ns = Obs.Metrics.counter "eval.view_build_ns"
let m_delta_rows = Obs.Metrics.counter "eval.delta_rows"
let m_delta_size = Obs.Metrics.histogram "eval.delta_size"
let m_table_rows = Obs.Metrics.gauge "eval.table_rows"

let record_table_rows db =
  if Obs.Metrics.enabled () then
    Obs.Metrics.set_gauge m_table_rows
      (float_of_int
         (List.fold_left
            (fun acc t -> acc + Bag.distinct_cardinal (Table.rows t))
            0 (Database.tables db)))

let record_delta d =
  if Obs.Metrics.enabled () then begin
    let rows = Delta.total_magnitude d in
    Obs.Metrics.add m_delta_rows rows;
    Obs.Metrics.observe m_delta_size rows;
    rows
  end
  else 0

let trace_sample strategy sample delta_rows =
  if Obs.Trace.enabled () then
    Obs.Trace.emit
      ~args:
        [ ("strategy", strategy_name strategy);
          ("sample", string_of_int sample);
          ("delta_rows", string_of_int delta_rows) ]
      "eval.sample"

type run = {
  strategy : strategy;
  pdb : Pdb.t;
  query : Algebra.t;
  view : View.t option;  (* [Some] exactly for Materialized *)
  marginals : Marginals.t;
  mutable sample : int;
}

let marginals r = r.marginals

(* Algorithm 3's per-world cost: the whole query over the current world. *)
let full_query db query =
  let bag = (Obs.Timer.record m_full_query_ns (fun () -> Eval.eval db query)).Eval.bag in
  Obs.Metrics.incr m_full_query_count;
  bag

let start strategy pdb ~query =
  let db = Pdb.db pdb in
  record_table_rows db;
  (* Updates recorded before evaluation starts (and burn-in) belong to no
     sample. *)
  ignore (World.drain_delta (Pdb.world pdb) : Delta.t);
  let view, bag =
    match strategy with
    | Naive -> (None, full_query db query)
    | Materialized ->
      let v = Obs.Timer.record m_view_build_ns (fun () -> View.create db query) in
      (Some v, View.result v)
  in
  let marginals = Marginals.create () in
  Marginals.observe marginals bag;
  Obs.Metrics.incr m_samples;
  { strategy; pdb; query; view; marginals; sample = 0 }

let observe r =
  let delta = World.drain_delta (Pdb.world r.pdb) in
  let dr = record_delta delta in
  let bag =
    match r.view with
    | None ->
      (* The naive evaluator ignores the delta — it pays for a full query
         execution on every sampled world. *)
      full_query (Pdb.db r.pdb) r.query
    | Some v ->
      Obs.Timer.record m_maintain_ns (fun () -> View.update v delta);
      Obs.Metrics.incr m_maintain_count;
      View.result v
  in
  Marginals.observe r.marginals bag;
  Obs.Metrics.incr m_samples;
  r.sample <- r.sample + 1;
  trace_sample r.strategy r.sample dr

let evaluate ?on_sample ?(burn_in = 0) strategy pdb ~query ~thin ~samples =
  let started = Obs.Timer.start () in
  if burn_in > 0 then Pdb.walk pdb ~steps:burn_in;
  let r = start strategy pdb ~query in
  let notify () =
    match on_sample with
    | None -> ()
    | Some f ->
      f { sample = r.sample;
          elapsed = Obs.Timer.seconds (Obs.Timer.elapsed_ns started);
          marginals = r.marginals }
  in
  notify ();
  for _ = 1 to samples do
    Pdb.walk pdb ~steps:thin;
    observe r;
    notify ()
  done;
  r.marginals

let evaluate_sql ?on_sample ?burn_in strategy pdb ~sql ~thin ~samples =
  evaluate ?on_sample ?burn_in strategy pdb ~query:(Sql.parse sql) ~thin ~samples
