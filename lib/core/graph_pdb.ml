open Factorgraph

type binding = {
  field : Field.t;
  dom : Domain.t;
  to_value : string -> Relational.Value.t;
}

type t = {
  world : World.t;
  graph : Graph.t;
  mutable assignment : Assignment.t;
  mutable bindings : binding array; (* indexed by variable id *)
  index : (Field.t, Graph.var) Hashtbl.t;
}

let create world =
  { world;
    graph = Graph.create ();
    assignment = Assignment.create 0;
    bindings = [||];
    index = Hashtbl.create 64 }

let world t = t.world
let graph t = t.graph
let assignment t = t.assignment

let default_to_value s = Relational.Value.Text s

let bind ?(to_value = default_to_value) t field dom =
  if Hashtbl.mem t.index field then
    invalid_arg (Format.asprintf "Graph_pdb.bind: %a already bound" Field.pp field);
  let current = Relational.Value.to_string (World.get_field t.world field) in
  let start =
    match Domain.index_opt dom current with
    | Some i -> i
    | None ->
      invalid_arg
        (Format.asprintf "Graph_pdb.bind: %a holds %s, outside its domain" Field.pp field current)
  in
  let v = Graph.add_variable t.graph dom in
  (* Grow the parallel structures to cover the new variable. *)
  let a = Assignment.create (Graph.num_variables t.graph) in
  for i = 0 to Assignment.size t.assignment - 1 do
    Assignment.set a i (Assignment.get t.assignment i)
  done;
  Assignment.set a v start;
  t.assignment <- a;
  let b = { field; dom; to_value } in
  let bs = Array.make (v + 1) b in
  Array.blit t.bindings 0 bs 0 (Array.length t.bindings);
  bs.(v) <- b;
  t.bindings <- bs;
  Hashtbl.replace t.index field v;
  v

let set t v value =
  let b = t.bindings.(v) in
  Assignment.set t.assignment v value;
  World.set_field t.world b.field (b.to_value (Domain.value b.dom value))

let flip_proposal t : World.t Mcmc.Proposal.t =
  fun rng _world ->
    let n = Array.length t.bindings in
    if n = 0 then invalid_arg "Graph_pdb.flip_proposal: no bound variables";
    let v = Mcmc.Rng.int rng n in
    let dom = t.bindings.(v).dom in
    let value = Mcmc.Rng.int rng (Domain.size dom) in
    let delta_log_pi =
      if value = Assignment.get t.assignment v then 0.
      else Graph.delta_log_score t.graph t.assignment [ (v, value) ]
    in
    { Mcmc.Proposal.delta_log_pi;
      log_q_ratio = 0.;
      commit = (fun () -> set t v value) }

let pdb t ~rng = Pdb.create ~world:t.world ~proposal:(flip_proposal t) ~rng
