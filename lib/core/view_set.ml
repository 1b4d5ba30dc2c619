open Relational

type entry = {
  id : int;
  name : string;
  view : View.t;
  marginals : Marginals.t;
}

module IT = Hashtbl.Make (Int)

(* [by_id] gives O(1) lookup; [order] is registration order, so the
   per-sample walk over it allocates nothing. Every view is compiled over
   the one [cache], so structurally-equal subplans resolve to shared
   nodes maintained once per delta batch. *)
type t = {
  cache : View.cache;
  by_id : entry IT.t;
  mutable order : entry list;
}

let create () = { cache = View.cache_create (); by_id = IT.create 64; order = [] }

let add t e =
  IT.replace t.by_id e.id e;
  t.order <- t.order @ [ e ]

let bootstrap t db ~id ~name algebra =
  let view = View.create ~cache:t.cache db algebra in
  let marginals = Marginals.create () in
  Marginals.observe marginals (View.result view);
  let e = { id; name; view; marginals } in
  add t e;
  e

let restore t db ~id ~name algebra ~counts ~samples =
  let view = View.create ~cache:t.cache db algebra in
  add t { id; name; view; marginals = Marginals.of_counts ~samples counts }

let remove t e =
  IT.remove t.by_id e.id;
  t.order <- List.filter (fun x -> not (Int.equal x.id e.id)) t.order;
  View.release t.cache e.view

let maintain t delta = List.iter (fun e -> View.update e.view delta) t.order
let fold t = List.iter (fun e -> Marginals.observe e.marginals (View.result e.view)) t.order
let find t id = IT.find_opt t.by_id id
let entries t = t.order
let count t = IT.length t.by_id
let shared_nodes t = View.cache_shared t.cache
let cached_nodes t = View.cache_nodes t.cache
