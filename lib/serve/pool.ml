(* Supervision metric (docs/OBSERVABILITY.md): "checkpoint.retry.count"
   counts chain restarts granted by the durability config — distinct from
   "parallel.retries", which counts every retried job across all users of
   Mcmc.Parallel. *)
let m_retry = Obs.Metrics.counter "checkpoint.retry.count"

module Str_tbl = Relational.Str_tbl

type durability = {
  dir : string;
  resume : bool;
  retries : int;
  backoff_s : float;
  remake : chain:int -> Relational.Database.t -> Core.Pdb.t;
  policy : Durable.policy;
}

let chain_path d chain = Filename.concat d.dir (Printf.sprintf "chain-%d.ckpt" chain)
let wal_path d chain = Filename.concat d.dir (Printf.sprintf "chain-%d.wal" chain)

(* One chain's marginals keyed by registered query name, so a reordered
   or missing registration in one chain is an error, not a silent
   mispairing (and the lookup is O(1) per query instead of a positional
   List.nth scan). *)
let marginals_by_name reg =
  let tbl = Str_tbl.create 16 in
  List.iter
    (fun (id, name) ->
      if Str_tbl.mem tbl name then
        invalid_arg (Printf.sprintf "Serve.Pool: duplicate query name %S" name);
      Str_tbl.replace tbl name (Registry.marginals reg id))
    (Registry.queries reg);
  tbl

let across by_name name =
  List.map
    (fun tbl ->
      match Str_tbl.find_opt tbl name with
      | Some m -> m
      | None -> invalid_arg (Printf.sprintf "Serve.Pool: chain is missing query %S" name))
    by_name

let run ?(burn_in = 0) ?durability ~merge ~chains ~make ~queries ~thin ~samples () =
  (* Fresh-start path for one chain: build, burn in, register everything. *)
  let fresh i =
    let pdb = make ~chain:i in
    if burn_in > 0 then Core.Pdb.walk pdb ~steps:burn_in;
    (* Registry.create discards the burn-in delta — those updates are
       already part of the state the views bootstrap from. *)
    let reg = Registry.create pdb in
    List.iter (fun (name, q) -> ignore (Registry.register ~name reg q : Registry.query_id)) queries;
    reg
  in
  (* The one sample loop, plain or durable (a durable registry journals
     and compacts inside Registry.step); a resumed registry picks up at
     the sample after its restored count. *)
  let sample reg =
    for s = Registry.samples reg + 1 to samples do
      Checkpoint.Failpoint.hit "pool.sample" ~index:s;
      Registry.step reg ~thin
    done;
    reg
  in
  let per_chain =
    match durability with
    | None -> Mcmc.Parallel.map ~n:chains (fun i -> sample (fresh i))
    | Some d ->
        (* attempts.(i) > 0 marks a supervised restart: the retried job must
           resume from the state its crashed predecessor left behind even
           when the caller did not ask to resume a previous process's run.
           Written by on_retry and read by the retried job on the same domain
           (Parallel.map retries in place), so no synchronization is needed. *)
        let attempts = Array.make chains 0 in
        let on_retry ~index ~attempt _exn =
          attempts.(index) <- attempt;
          Obs.Metrics.incr m_retry
        in
        let run_durable i =
          let snap_path = chain_path d i and wal_path = wal_path d i in
          (* A chain adopts on-disk state when the caller asked for a warm
             restart or when its own crashed predecessor left it behind. *)
          let dur =
            if Sys.file_exists snap_path && (d.resume || attempts.(i) > 0) then
              Durable.resume ~snap_path ~wal_path d.policy ~make_pdb:(d.remake ~chain:i)
            else Durable.start ~snap_path ~wal_path d.policy (fresh i)
          in
          let reg = sample (Durable.registry dur) in
          Durable.close dur;
          reg
        in
        Mcmc.Parallel.map ~retries:d.retries ~backoff_s:d.backoff_s ~on_retry
          ~n:chains run_durable
  in
  let by_name = List.map marginals_by_name per_chain in
  List.map (fun (name, _) -> (name, merge (across by_name name))) queries

let evaluate ?burn_in ?durability ~chains ~make ~queries ~thin ~samples () =
  run ?burn_in ?durability ~merge:Core.Marginals.merge ~chains ~make ~queries ~thin ~samples
    ()
