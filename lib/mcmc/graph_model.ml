open Factorgraph

type world = { graph : Graph.t; assignment : Assignment.t }

let world_of graph = { graph; assignment = Graph.new_assignment graph }

let hidden_vars g =
  let out = ref [] in
  for v = Graph.num_variables g - 1 downto 0 do
    if not (Graph.is_observed g v) then out := v :: !out
  done;
  Array.of_list !out

let flip ?vars () : world Proposal.t =
  let cache = ref None in
  fun rng w ->
    let pool =
      match vars with
      | Some vs -> vs
      | None -> (
        match !cache with
        | Some vs -> vs
        | None ->
          let vs = hidden_vars w.graph in
          cache := Some vs;
          vs)
    in
    let v = Rng.pick rng pool in
    let dom = Graph.domain w.graph v in
    let value = Rng.int rng (Domain.size dom) in
    let delta_log_pi =
      if Int.equal value (Assignment.get w.assignment v) then 0.
      else Graph.delta_log_score w.graph w.assignment [ (v, value) ]
    in
    { Proposal.delta_log_pi;
      log_q_ratio = 0.;
      commit = (fun () -> Assignment.set w.assignment v value) }
