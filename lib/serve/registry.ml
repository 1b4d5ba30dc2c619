open Relational

(* Observability (docs/OBSERVABILITY.md): the serving layer's cost split.
   One walked world costs one "serve.fanout_ns" span covering every
   registered view's maintenance + observation; "serve.bootstrap_evals"
   counts the full evaluations paid by late registrations — the only
   non-incremental query work this layer ever does. "serve.shared_nodes"
   gauges how many cached subplans are currently multi-parent (the
   multi-query-optimization win; its per-batch payoff is the
   "serve.dedup_hits" counter the shared nodes themselves emit). *)
let m_queries = Obs.Metrics.gauge "serve.queries"
let m_fanout_ns = Obs.Metrics.counter "serve.fanout_ns"
let m_bootstrap_evals = Obs.Metrics.counter "serve.bootstrap_evals"
let m_samples = Obs.Metrics.counter "serve.samples"
let m_shared_nodes = Obs.Metrics.gauge "serve.shared_nodes"

(* Records applied on top of a snapshot during a WAL replay
   (docs/OBSERVABILITY.md, docs/DURABILITY.md §recovery). *)
let m_replay = Obs.Metrics.counter "wal.replay_records"

type query_id = int

let id_to_int id = id
let id_of_int id = id

type entry = {
  id : query_id;
  name : string;
  view : View.t;
  marginals : Core.Marginals.t;
}

module IT = Hashtbl.Make (Int)

(* The views half of a registry: everything WAL replay rebuilds before a
   chain exists. [entries] gives O(1) find/insert/remove/count;
   [rev_order] preserves registration order (newest first — registration
   prepends in O(1), the ordered read side reverses). Every view is
   compiled over the one [cache], so structurally-equal subplans across
   queries resolve to shared nodes maintained once per delta batch. *)
type views = {
  cache : View.cache;
  entries : entry IT.t;
  mutable rev_order : query_id list;
  mutable next_id : int;
  mutable samples : int;
}

type t = {
  pdb : Core.Pdb.t;
  views : views;
  mutable journal : (Checkpoint.Wal.record -> unit) option;
}

let record_queries v =
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.set_gauge m_queries (float_of_int (IT.length v.entries));
    Obs.Metrics.set_gauge m_shared_nodes (float_of_int (View.cache_shared v.cache))
  end

(* Registered entries in registration order ([rev_order] is newest-first,
   so one rev_map both maps and restores the order). *)
let in_order v =
  List.rev_map
    (fun id -> match IT.find_opt v.entries id with Some e -> e | None -> assert false)
    v.rev_order

let add_entry v e =
  IT.replace v.entries e.id e;
  v.rev_order <- e.id :: v.rev_order

(* ---------- view-set transitions ----------

   The three ways the registered set changes, shared by the live
   operations and WAL replay. They take the database explicitly because
   replay runs them over the restored tables before [make_pdb] has built
   the chain. *)

(* Attach an already-compiled plan: one full evaluation against [db],
   which is also the query's first observed sample — matching
   Core.Evaluator's sample-0 observation. *)
let bootstrap v db ~id ~name algebra =
  let view = View.create ~cache:v.cache db algebra in
  Obs.Metrics.incr m_bootstrap_evals;
  let marginals = Core.Marginals.create () in
  Core.Marginals.observe marginals (View.result view);
  add_entry v { id; name; view; marginals }

let remove v e =
  IT.remove v.entries e.id;
  v.rev_order <- List.filter (fun i -> not (Int.equal i e.id)) v.rev_order;
  View.release v.cache e.view

(* One delta batch into every view, in registration order; [observe]
   folds each view's new answer into its marginals (a sample point) or
   not (an absorb). *)
let fan_out v delta ~observe =
  List.iter
    (fun e ->
      View.update e.view delta;
      if observe then Core.Marginals.observe e.marginals (View.result e.view))
    (in_order v)

let create pdb =
  ignore (Core.World.drain_delta (Core.Pdb.world pdb) : Delta.t);
  let views =
    { cache = View.cache_create (); entries = IT.create 64; rev_order = []; next_id = 0;
      samples = 0 }
  in
  record_queries views;
  { pdb; views; journal = None }

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
    fan_out t.views delta ~observe:false
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
  let id = t.views.next_id in
  t.views.next_id <- id + 1;
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
  match IT.find_opt t.views.entries id with
  | Some e -> e
  | None -> invalid_arg (Printf.sprintf "Serve.Registry: unknown query id %d" id)

let unregister t id =
  let e = find t id in
  remove t.views e;
  record_queries t.views;
  emit t (Checkpoint.Wal.Unregister { id });
  e.marginals

let query_count t = IT.length t.views.entries
let queries t = List.map (fun e -> (e.id, e.name)) (in_order t.views)
let query_name t id = Option.map (fun e -> e.name) (IT.find_opt t.views.entries id)
let marginals t id = (find t id).marginals
let samples t = t.views.samples
let shared_nodes t = View.cache_shared t.views.cache
let cached_nodes t = View.cache_nodes t.views.cache

let step t ~thin =
  Core.Pdb.walk t.pdb ~steps:thin;
  let delta = Core.World.drain_delta (Core.Pdb.world t.pdb) in
  Obs.Timer.record m_fanout_ns (fun () -> fan_out t.views delta ~observe:true);
  t.views.samples <- t.views.samples + 1;
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
        [ ("queries", string_of_int (IT.length t.views.entries));
          ("sample", string_of_int t.views.samples);
          ("delta_rows", string_of_int (Delta.total_magnitude delta)) ]
      "serve.sample"

let run ?on_sample t ~thin ~samples =
  for i = 1 to samples do
    step t ~thin;
    match on_sample with None -> () | Some f -> f i
  done

(* ---------- durability (lib/checkpoint) ---------- *)

let snapshot t =
  (* Bring every view up to the database's believed state first, so the
     captured node bags and the captured tables describe the same world. *)
  absorb_pending t;
  let stats = Core.Pdb.stats t.pdb in
  {
    Checkpoint.State.samples = t.views.samples;
    steps = Core.Pdb.steps_taken t.pdb;
    proposed = stats.Mcmc.Metropolis.proposed;
    accepted = stats.Mcmc.Metropolis.accepted;
    next_id = t.views.next_id;
    rng = Mcmc.Rng.export (Core.Pdb.rng t.pdb);
    tables = Checkpoint.State.capture_tables (Core.Pdb.db t.pdb);
    queries =
      List.map
        (fun e ->
          {
            Checkpoint.State.q_id = e.id;
            q_name = e.name;
            q_algebra = View.algebra e.view;
            q_counts = Core.Marginals.counts e.marginals;
            q_z = Core.Marginals.samples e.marginals;
            q_nodes = List.map Bag.to_list (View.node_states e.view);
          })
        (in_order t.views);
  }

let bag_of_entries entries =
  let b = Bag.create () in
  List.iter (fun (row, count) -> Bag.add ~count b row) entries;
  b

(* Restored entries share one cache exactly like registered ones: each
   query's snapshot carries the (identical) bags of any shared node, and
   View.of_states overwrites idempotently, so the shared-plan world comes
   back deterministically from the recorded plans alone. *)
let restore_entry ~cache db q =
  let view =
    View.of_states ~cache db q.Checkpoint.State.q_algebra
      (List.map bag_of_entries q.Checkpoint.State.q_nodes)
  in
  let marginals =
    Core.Marginals.of_counts ~samples:q.Checkpoint.State.q_z q.Checkpoint.State.q_counts
  in
  { id = q.Checkpoint.State.q_id; name = q.Checkpoint.State.q_name; view; marginals }

(* ---------- WAL replay ---------- *)

(* Apply one WAL delta to the restored base tables, removals before
   insertions per table so a primary-key update (−old, +new within one
   batch) frees the key before reclaiming it. *)
let apply_wal_delta db (delta : Checkpoint.Wal.delta) =
  List.iter
    (fun (table, entries) ->
      let tbl = Database.table db table in
      List.iter
        (fun (row, count) ->
          if count < 0 then
            for _ = 1 to -count do
              Table.delete tbl row
            done)
        entries;
      List.iter
        (fun (row, count) ->
          if count > 0 then
            for _ = 1 to count do
              Table.insert tbl row
            done)
        entries)
    delta

(* The same batch as a Delta.t, for the view-maintenance fan-out. *)
let delta_of_wal (delta : Checkpoint.Wal.delta) =
  let d = Delta.create () in
  List.iter
    (fun (table, entries) ->
      List.iter
        (fun (row, count) ->
          if count > 0 then
            for _ = 1 to count do
              Delta.record_insert d ~table row
            done
          else
            for _ = 1 to -count do
              Delta.record_delete d ~table row
            done)
        entries)
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
  let views =
    { cache = View.cache_create (); entries = IT.create 64; rev_order = [];
      next_id = snap.Checkpoint.State.next_id; samples = snap_samples }
  in
  List.iter
    (fun q -> add_entry views (restore_entry ~cache:views.cache db q))
    snap.Checkpoint.State.queries;
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
  let replay delta ~observe =
    apply_wal_delta db delta;
    fan_out views (delta_of_wal delta) ~observe;
    Obs.Metrics.incr m_replay
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
            replay delta ~observe:true;
            views.samples <- views.samples + 1;
            resume_at := (steps, proposed, accepted, rng)
          end
      | Register { id; name; algebra } ->
          if event_live () then begin
            (* Replaying a late registration repeats its bootstrap
               evaluation — the one full-query cost a WAL restore can
               pay, and only for queries registered after the last
               compaction. The record carries the already-compiled plan,
               so the rebuilt view shares the same cached subtrees the
               original did. *)
            bootstrap views db ~id ~name algebra;
            views.next_id <- Int.max views.next_id (id + 1);
            Obs.Metrics.incr m_replay
          end
      | Unregister { id } ->
          if event_live () then begin
            Option.iter (remove views) (IT.find_opt views.entries id);
            Obs.Metrics.incr m_replay
          end
      | Absorb { delta } -> if event_live () then replay delta ~observe:false)
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
  { pdb; views; journal = None }

let restore ~make_pdb snap =
  restore_wal ~make_pdb snap ~base_samples:snap.Checkpoint.State.samples ~records:[]
