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
         (List.fold_left (fun acc t -> acc + Table.cardinal t) 0 (Database.tables db)))

let record_delta d =
  if Obs.Metrics.enabled () then begin
    let rows = Delta.total_magnitude d in
    Obs.Metrics.add m_delta_rows rows;
    Obs.Metrics.observe m_delta_size rows;
    rows
  end
  else 0

type run = {
  pdb : Pdb.t;
  source : source;
  marginals : Marginals.t;
}

and source = Rerun of Algebra.t | Views of View_set.t

let marginals r = r.marginals
let sample r = Marginals.samples r.marginals - 1

let trace_sample r delta_rows =
  if Obs.Trace.enabled () then
    Obs.Trace.emit
      ~args:
        [ ("strategy", strategy_name (match r.source with Rerun _ -> Naive | Views _ -> Materialized));
          ("sample", string_of_int (sample r));
          ("delta_rows", string_of_int delta_rows) ]
      "eval.sample"

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
  let r =
    match strategy with
    | Naive ->
      let marginals = Marginals.create () in
      Marginals.observe marginals (full_query db query);
      { pdb; source = Rerun query; marginals }
    | Materialized ->
      let views = View_set.create () in
      let e =
        Obs.Timer.record m_view_build_ns (fun () ->
            View_set.bootstrap views db ~id:0 ~name:"" query)
      in
      { pdb; source = Views views; marginals = e.View_set.marginals }
  in
  Obs.Metrics.incr m_samples;
  r

let observe r =
  let delta = World.drain_delta (Pdb.world r.pdb) in
  let dr = record_delta delta in
  (match r.source with
  | Rerun query ->
    (* The naive evaluator ignores the delta — it pays for a full query
       execution on every sampled world. *)
    Marginals.observe r.marginals (full_query (Pdb.db r.pdb) query)
  | Views views ->
    Obs.Timer.record m_maintain_ns (fun () -> View_set.maintain views delta);
    Obs.Metrics.incr m_maintain_count;
    View_set.fold views);
  Obs.Metrics.incr m_samples;
  trace_sample r dr

let evaluate ?on_sample ?(burn_in = 0) strategy pdb ~query ~thin ~samples =
  let started = Obs.Timer.start () in
  if burn_in > 0 then Pdb.walk pdb ~steps:burn_in;
  let r = start strategy pdb ~query in
  let notify () =
    match on_sample with
    | None -> ()
    | Some f ->
      f { sample = sample r;
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
