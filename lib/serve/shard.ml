(* Metrics (docs/OBSERVABILITY.md): "shard.count" is the effective
   partition width of the last evaluate call; "shard.merge_ns" spans the
   per-query Marginals.merge_shards unions at the end of a run. *)
let m_count = Obs.Metrics.gauge "shard.count"
let m_merge_ns = Obs.Metrics.counter "shard.merge_ns"

let evaluate ?burn_in ~shards ~make ~queries ~thin ~samples () =
  if shards < 1 then invalid_arg "Serve.Shard: shards must be >= 1";
  Obs.Metrics.set_gauge m_count (float_of_int shards);
  Pool.run ?burn_in
    ~merge:(fun ms -> Obs.Timer.record m_merge_ns (fun () -> Core.Marginals.merge_shards ms))
    ~chains:shards
    ~make:(fun ~chain -> make ~shard:chain)
    ~queries ~thin ~samples ()
