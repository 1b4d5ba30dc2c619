open Relational

(* Observability (docs/OBSERVABILITY.md): the serving layer's cost split.
   One walked world costs one "serve.fanout_ns" span covering every
   registered view's maintenance + observation; "serve.bootstrap_evals"
   counts the full evaluations paid by registrations and by restore's
   rebuilds — the only non-incremental query work this layer ever does.
   "serve.shared_nodes" gauges how many cached subplans are currently
   multi-parent (the multi-query-optimization win; its per-batch payoff
   is the "serve.dedup_hits" counter the shared nodes themselves emit). *)
let m_queries = Obs.Metrics.gauge "serve.queries"
let m_fanout_ns = Obs.Metrics.counter "serve.fanout_ns"
let m_bootstrap_evals = Obs.Metrics.counter "serve.bootstrap_evals"
let m_samples = Obs.Metrics.counter "serve.samples"
let m_shared_nodes = Obs.Metrics.gauge "serve.shared_nodes"

(* Records applied on top of a snapshot during a WAL replay
   (docs/OBSERVABILITY.md, docs/DURABILITY.md §recovery). *)
let m_replay = Obs.Metrics.counter "wal.replay_records"

(* Building the snapshot image compaction writes (Durable), before the
   encode and the file write (Checkpoint.State.save). *)
let m_capture_ns = Obs.Metrics.histogram "checkpoint.capture_ns"

type query_id = int

type t = {
  pdb : Core.Pdb.t;
  views : Core.View_set.t;
  mutable next_id : int;
  mutable samples : int;
  mutable journal : (Checkpoint.Wal.record -> unit) option;
}

let record_queries views =
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.set_gauge m_queries (float_of_int (Core.View_set.count views));
    Obs.Metrics.set_gauge m_shared_nodes (float_of_int (Core.View_set.shared_nodes views))
  end

(* Takes the database explicitly: WAL replay runs it before [make_pdb]. *)
let bootstrap views db ~id ~name algebra =
  ignore (Core.View_set.bootstrap views db ~id ~name algebra : Core.View_set.entry);
  Obs.Metrics.incr m_bootstrap_evals

let create pdb =
  ignore (Core.World.drain_delta (Core.Pdb.world pdb) : Delta.t);
  let views = Core.View_set.create () in
  record_queries views;
  { pdb; views; next_id = 0; samples = 0; journal = None }

let pdb t = t.pdb
let set_journal t sink = t.journal <- Some sink
let clear_journal t = t.journal <- None

(* A drained Delta.t as the pure per-table entry lists a WAL record
   carries: tables sorted by name, entries in Bag.to_list's canonical
   row order — the same canonical spelling the snapshot uses, so the
   record bytes are deterministic. *)
let wal_delta delta =
  Delta.tables delta
  |> List.sort String.compare
  |> List.filter_map (fun table ->
         match Delta.for_table delta table with
         | None -> None
         | Some bag -> (
             match Bag.to_list bag with [] -> None | entries -> Some (table, entries)))

let emit t record = match t.journal with None -> () | Some sink -> sink record

(* Fold the world's pending delta into every registered view without
   observing marginals. Called before the registered set changes mid-run:
   updates recorded since the last sample point are already applied to the
   database, so a view built now would double-count them if they later
   arrived through the stream — absorbing them first keeps every view's
   believed state equal to the database's. Deltas compose, so splitting a
   sample interval's batch in two leaves each view's answer at the next
   sample point unchanged. *)
let absorb_pending t =
  let delta = Core.World.drain_delta (Core.Pdb.world t.pdb) in
  if not (Delta.is_empty delta) then begin
    (* Journal the drain before applying it: a replayed [Absorb] brings
       the restored database and views to exactly the state the event
       that follows it (usually a [Register]) was performed under. *)
    emit t (Checkpoint.Wal.Absorb { delta = wal_delta delta });
    Core.View_set.maintain t.views delta
  end

(* Normalize once, at registration: syntactic rewrites put equal queries
   in one canonical spelling, then the stats-driven join order picks the
   cheap bootstrap plan. The *compiled* plan is what the WAL Register
   record and the snapshot carry, so replay and restore rebuild the
   identical tree (and the identical cache keys) without consulting
   statistics that may since have drifted. *)
let compile t algebra = Optimizer.reorder (Core.Pdb.db t.pdb) (Optimizer.optimize algebra)

let register ?name t algebra =
  absorb_pending t;
  let id = t.next_id in
  t.next_id <- id + 1;
  let name = match name with Some n -> n | None -> Printf.sprintf "q%d" id in
  let algebra = compile t algebra in
  bootstrap t.views (Core.Pdb.db t.pdb) ~id ~name algebra;
  record_queries t.views;
  emit t (Checkpoint.Wal.Register { id; name; algebra });
  id

let register_sql ?name t sql =
  let name = match name with Some n -> n | None -> sql in
  register ~name t (Sql.parse sql)

let find t id =
  match Core.View_set.find t.views id with
  | Some e -> e
  | None -> invalid_arg (Printf.sprintf "Serve.Registry: unknown query id %d" id)

let unregister t id =
  let e = find t id in
  Core.View_set.remove t.views e;
  record_queries t.views;
  emit t (Checkpoint.Wal.Unregister { id });
  e.marginals

let query_count t = Core.View_set.count t.views
let queries t = List.map (fun e -> (e.Core.View_set.id, e.name)) (Core.View_set.entries t.views)
let query_name t id = Option.map (fun e -> e.Core.View_set.name) (Core.View_set.find t.views id)
let marginals t id = (find t id).marginals
let samples t = t.samples
let shared_nodes t = Core.View_set.shared_nodes t.views
let cached_nodes t = Core.View_set.cached_nodes t.views

let sample_point views delta =
  Core.View_set.maintain views delta;
  Core.View_set.fold views

let step t ~thin =
  Core.Pdb.walk t.pdb ~steps:thin;
  let delta = Core.World.drain_delta (Core.Pdb.world t.pdb) in
  Obs.Timer.record m_fanout_ns (fun () -> sample_point t.views delta);
  t.samples <- t.samples + 1;
  Obs.Metrics.incr m_samples;
  (match t.journal with
  | None -> ()
  | Some sink ->
      (* Post-walk counters and generator blob: replay can resume the
         exact trajectory from any record (Wal's contract). *)
      let stats = Core.Pdb.stats t.pdb in
      sink
        (Checkpoint.Wal.Sample
           {
             steps = Core.Pdb.steps_taken t.pdb;
             proposed = stats.Mcmc.Metropolis.proposed;
             accepted = stats.Mcmc.Metropolis.accepted;
             rng = Mcmc.Rng.export (Core.Pdb.rng t.pdb);
             delta = wal_delta delta;
           }));
  if Obs.Trace.enabled () then
    Obs.Trace.emit
      ~args:
        [ ("queries", string_of_int (Core.View_set.count t.views));
          ("sample", string_of_int t.samples);
          ("delta_rows", string_of_int (Delta.total_magnitude delta)) ]
      "serve.sample"

let run ?on_sample t ~thin ~samples =
  for i = 1 to samples do
    step t ~thin;
    match on_sample with None -> () | Some f -> f i
  done

(* ---------- durability (lib/checkpoint) ---------- *)

let snapshot t =
  (* Drain the pending world delta into the views first: the log's next
     [Sample] record must start from the world the captured tables hold,
     or replay would apply this delta twice. *)
  absorb_pending t;
  Obs.Timer.observe m_capture_ns (fun () ->
      let stats = Core.Pdb.stats t.pdb in
      {
        Checkpoint.State.samples = t.samples;
        steps = Core.Pdb.steps_taken t.pdb;
        proposed = stats.Mcmc.Metropolis.proposed;
        accepted = stats.Mcmc.Metropolis.accepted;
        next_id = t.next_id;
        rng = Mcmc.Rng.export (Core.Pdb.rng t.pdb);
        tables = Checkpoint.State.capture_tables (Core.Pdb.db t.pdb);
        queries =
          List.map
            (fun (e : Core.View_set.entry) ->
              {
                Checkpoint.State.q_id = e.id;
                q_name = e.name;
                q_algebra = View.algebra e.view;
                q_counts = Core.Marginals.counts e.marginals;
                q_z = Core.Marginals.samples e.marginals;
              })
            (Core.View_set.entries t.views);
      })

(* ---------- WAL replay ---------- *)

(* Apply one WAL delta to the restored base tables and return it as the
   Delta.t the views maintain, recorded in the log's entry order. Per
   table, removals go before insertions so a primary-key update (−old,
   +new within one batch) frees the key before reclaiming it. *)
let apply_wal_delta db (delta : Checkpoint.Wal.delta) =
  let d = Delta.create () in
  List.iter
    (fun (table, entries) ->
      let tbl = Database.table db table in
      let inserts =
        List.fold_left
          (fun inserts (row, count) ->
            if count > 0 then begin
              for _ = 1 to count do
                Delta.record_insert d ~table row
              done;
              (row, count) :: inserts
            end
            else begin
              for _ = 1 to -count do
                Delta.record_delete d ~table row;
                Table.delete tbl row
              done;
              inserts
            end)
          [] entries
      in
      List.iter
        (fun (row, count) ->
          for _ = 1 to count do
            Table.insert tbl row
          done)
        (List.rev inserts))
    delta;
  d

let restore_wal ~make_pdb snap ~base_samples ~records =
  let snap_samples = snap.Checkpoint.State.samples in
  if base_samples > snap_samples then
    raise
      (Checkpoint.Codec.Corrupt
         (Printf.sprintf
            "WAL base %d is ahead of snapshot at %d samples — compaction writes the \
             snapshot before rotating, so the log cannot extend a state the snapshot \
             has not reached"
            base_samples snap_samples));
  let db = Checkpoint.State.restore_db snap.Checkpoint.State.tables in
  let views = Core.View_set.create () in
  (* Each view is rebuilt the way a registration builds it: one evaluation
     of the recorded plan over the restored tables, through the one cache
     in registration order, so the shared-plan world comes back from the
     plans alone. *)
  List.iter
    (fun q ->
      Checkpoint.State.(
        Core.View_set.restore views db ~id:q.q_id ~name:q.q_name q.q_algebra
          ~counts:q.q_counts ~samples:q.q_z);
      Obs.Metrics.incr m_bootstrap_evals)
    snap.Checkpoint.State.queries;
  let next_id = ref snap.Checkpoint.State.next_id and samples = ref snap_samples in
  (* Running sample ordinal within the log. Records at or below the
     snapshot's sample count are already part of the snapshot (the
     crash-between-snapshot-and-rotation window) and are skipped; see
     docs/DURABILITY.md's recovery rules. An event record at ordinal
     [snap_samples] is live only when the log was rotated at that very
     snapshot ([base_samples = snap_samples]) — in a log with an older
     base, anything at that ordinal predates the snapshot. *)
  let seen = ref base_samples in
  let event_live () =
    !seen > snap_samples || (Int.equal !seen snap_samples && Int.equal base_samples snap_samples)
  in
  (* The chain resumes from the last replayed sample when there is one,
     else from the snapshot point. *)
  let resume_at =
    ref
      Checkpoint.State.(snap.steps, snap.proposed, snap.accepted, snap.rng)
  in
  List.iter
    (fun record ->
      match (record : Checkpoint.Wal.record) with
      | Sample { steps; proposed; accepted; rng; delta } ->
          incr seen;
          if !seen > snap_samples then begin
            sample_point views (apply_wal_delta db delta);
            Obs.Metrics.incr m_replay;
            incr samples;
            resume_at := (steps, proposed, accepted, rng)
          end
      | Register { id; name; algebra } ->
          if event_live () then begin
            (* Replaying a late registration repeats its bootstrap
               evaluation, as restoring a snapshot's query does. The
               record carries the already-compiled plan, so the rebuilt
               view shares the same cached subtrees the original did. *)
            bootstrap views db ~id ~name algebra;
            next_id := Int.max !next_id (id + 1);
            Obs.Metrics.incr m_replay
          end
      | Unregister { id } ->
          if event_live () then begin
            Option.iter (Core.View_set.remove views) (Core.View_set.find views id);
            Obs.Metrics.incr m_replay
          end
      | Absorb { delta } ->
          if event_live () then begin
            Core.View_set.maintain views (apply_wal_delta db delta);
            Obs.Metrics.incr m_replay
          end)
    records;
  (* The model and proposal read current field values at construction time
     (label mirrors, variable assignments), so building them over the
     restored database leaves them consistent with it; importing the
     generator afterwards makes the resumed walk draw the checkpointed
     chain's exact trajectory. *)
  let pdb = make_pdb db in
  if Core.Pdb.db pdb != db then
    invalid_arg "Serve.Registry.restore: make_pdb must build over the restored database";
  let steps, proposed, accepted, rng = !resume_at in
  Mcmc.Rng.import (Core.Pdb.rng pdb) rng;
  Core.Pdb.restore_counters pdb ~steps ~proposed ~accepted;
  ignore (Core.World.drain_delta (Core.Pdb.world pdb) : Delta.t);
  record_queries views;
  { pdb; views; next_id = !next_id; samples = !samples; journal = None }

let restore ~make_pdb snap =
  restore_wal ~make_pdb snap ~base_samples:snap.Checkpoint.State.samples ~records:[]
