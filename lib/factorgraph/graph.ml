type var = int
type factor_id = int

type factor = {
  scope : var array;
  score : Assignment.t -> float;
}

type var_info = { dom : Domain.t; observed : bool }

type t = {
  mutable vars : var_info array; (* grows by doubling *)
  mutable n_vars : int;
  factors : (factor_id, factor) Hashtbl.t;
  adjacency : (var, factor_id list) Hashtbl.t;
  mutable next_factor : int;
}

let create () =
  { vars = Array.make 16 { dom = Domain.boolean; observed = false };
    n_vars = 0;
    factors = Hashtbl.create 64;
    adjacency = Hashtbl.create 64;
    next_factor = 0 }

let add_variable ?(observed = false) g dom =
  let id = g.n_vars in
  if id = Array.length g.vars then begin
    let bigger = Array.make (2 * id) g.vars.(0) in
    Array.blit g.vars 0 bigger 0 id;
    g.vars <- bigger
  end;
  g.vars.(id) <- { dom; observed };
  g.n_vars <- id + 1;
  id

let check_var g v =
  if v < 0 || v >= g.n_vars then invalid_arg (Printf.sprintf "Graph: unknown variable %d" v)

let num_variables g = g.n_vars

let domain g v =
  check_var g v;
  g.vars.(v).dom

let is_observed g v =
  check_var g v;
  g.vars.(v).observed

let add_factor g ~scope score =
  Array.iter (check_var g) scope;
  let id = g.next_factor in
  g.next_factor <- id + 1;
  Hashtbl.replace g.factors id { scope; score };
  (* Register each variable once even when it repeats in the scope, so
     adjacency lists stay duplicate-free — the single-change fast path of
     [touched_factors] returns them without deduplication. *)
  Array.iteri
    (fun i v ->
      let dup = ref false in
      for j = 0 to i - 1 do
        if scope.(j) = v then dup := true
      done;
      if not !dup then begin
        let prev = Option.value ~default:[] (Hashtbl.find_opt g.adjacency v) in
        Hashtbl.replace g.adjacency v (id :: prev)
      end)
    scope;
  id

let add_table_factor g ~scope table =
  let doms = Array.map (fun v -> Domain.size (domain g v)) scope in
  let expected = Array.fold_left ( * ) 1 doms in
  if Array.length table <> expected then
    invalid_arg
      (Printf.sprintf "Graph.add_table_factor: table size %d, expected %d"
         (Array.length table) expected);
  let score a =
    let idx = ref 0 in
    Array.iteri (fun i v -> idx := (!idx * doms.(i)) + Assignment.get a v) scope;
    table.(!idx)
  in
  add_factor g ~scope score

let factor g id =
  match Hashtbl.find_opt g.factors id with
  | Some f -> f
  | None -> invalid_arg (Printf.sprintf "Graph: unknown factor %d" id)

let factor_scope g id = Array.copy (factor g id).scope
let factors_of g v = Option.value ~default:[] (Hashtbl.find_opt g.adjacency v)
let factor_score g id a = (factor g id).score a
let new_assignment g = Assignment.create g.n_vars
let log_score g a = Hashtbl.fold (fun _ f acc -> acc +. f.score a) g.factors 0.

let touched_factors g changes =
  match changes with
  | [] -> []
  | [ (v, _) ] ->
    (* Single-change fast path — the common case from flip proposals:
       adjacency lists carry no duplicates (see [add_factor]), so the list
       is returned as-is with no dedup hashtable and no allocation. *)
    factors_of g v
  | _ ->
    let seen = Hashtbl.create 16 in
    let out = ref [] in
    List.iter
      (fun (v, _) ->
        List.iter
          (fun id ->
            if not (Hashtbl.mem seen id) then begin
              Hashtbl.add seen id ();
              out := id :: !out
            end)
          (factors_of g v))
      changes;
    !out

let delta_log_score g a changes =
  let ids = touched_factors g changes in
  let before = List.fold_left (fun acc id -> acc +. (factor g id).score a) 0. ids in
  let after =
    Assignment.with_values a changes (fun () ->
        List.fold_left (fun acc id -> acc +. (factor g id).score a) 0. ids)
  in
  after -. before
