module VH = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

module RH = Hashtbl.Make (struct
  type t = Row.t

  let equal = Row.equal
  let hash = Row.hash
end)

(* Every node materializes its full current result in [current], maintained
   in place as deltas flow through. Storage is Table's business, so a scan
   follows one rule on either backend: it is *owned* ([sc_owned]) when a
   reader needs its rows while deltas flow — a nested-loop join sibling, a
   DISTINCT parent counting child occurrences, or the root, whose
   [current] is the view's result — and then holds its own copy of the
   table's rows and folds each delta like any other node. A non-owned scan
   stays empty: reset reads its rows from Table.rows
   ([source_bag]), and a selection directly over it runs Table.select,
   which on a columnar table compares its [col = const] conjuncts on the
   encoded columns and decodes only the rows that pass — the common
   indexed plans over a million-row token table never hold a copy of it.

   [footprint] is the set of canonical base-table names under the node; a
   delta batch touching none of them cannot change the node's result, so
   propagation short-circuits the whole subtree — this is what keeps
   K_recompute fallbacks (Diff, Order_by+limit) from re-running on every
   batch. *)
(* [live] tracks whether the node's state has been initialized by
   [reset_node]; a shared node acquired from a subplan cache is
   already live and registration skips re-initializing it — that is what
   makes registering the Nth overlapping query cost O(new nodes).

   [last_d]/[last_out] memoize the last delta batch processed, keyed by
   the {e physical} identity of the [Delta.t] (each drained batch is a
   fresh object, see [World.drain_delta]): when several views share a
   node, the first fan-out computes and folds the batch, and every other
   parent gets the cached output bag without touching [current]. *)
type node = {
  alg : Algebra.t;
  schema : Schema.t;
  kind : kind;
  mutable current : Bag.t;
  footprint : string list;
  mutable live : bool;
  mutable last_d : Delta.t option;
  mutable last_out : Bag.t;
}

and kind =
  | K_scan of scan_src
  | K_select of (Row.t -> bool) * (int * Value.t) list * node
  (* keep, and the [col = const] conjuncts it implies (Expr.eq_constants) *)
  | K_project of int array * node
  | K_join of join_info
  | K_distinct of node
  | K_union of node * node
  | K_recompute (* Diff, Order_by+limit: state is [current] itself *)
  | K_group of group_info
  | K_count_join of cj_info

and scan_src = { sc_table : string; mutable sc_owned : bool }
and join_info = { pred : Expr.t option; left : node; right : node; strategy : strategy }

(* J_indexed: both children carry hash indexes on the equi-join key columns,
   so each delta row costs one probe. J_nested (non-equi predicate or plain
   product): per-delta-row nested loop over the sibling's materialized
   [current] — still no sibling re-evaluation. *)
and strategy =
  | J_indexed of {
      left_pos : int array;
      right_pos : int array;
      left_idx : Key_index.t;
      right_idx : Key_index.t;
      keep : (Row.t -> bool) option; (* residual over the concatenated schema *)
    }
  | J_nested

and group_info = {
  g_child : node;
  keys_pos : int array;
  spec : Group_acc.spec;
  groups : Group_acc.t RH.t;
  global : bool;
}

and cj_info = {
  c_child : node;
  c_sub : node;
  key_pos : int;
  sub_key_pos : int;
  sub_counts : int VH.t;
  child_idx : Key_index.t; (* child rows keyed by the [key] column *)
}

type t = { db : Database.t; alg : Algebra.t; root : node }

let result v = v.root.current
let algebra v = v.alg

(* ------------------------------------------------------------------ *)
(* Construction in two phases. [build_shell] decides pure structure only —
   operator kinds, join strategies, schemas, footprints — leaving every
   [current], index, and accumulator empty; [reset_node] then initializes
   all of that state bottom-up from the database. Splitting them is what
   lets a view built over a subplan cache adopt the shared nodes that are
   already live and initialize only the ones it adds. *)

let cj_count info k = Option.value ~default:0 (VH.find_opt info.sub_counts k)

let group_key info row = Array.map (fun i -> Row.get row i) info.keys_pos

(* The accumulator of group [k], created empty on first sight. *)
let group_acc info k =
  match RH.find_opt info.groups k with
  | Some a -> a
  | None ->
    let a = Group_acc.create info.spec in
    RH.replace info.groups k a;
    a

let union_fp a b = List.fold_left (fun acc t -> if List.mem t acc then acc else t :: acc) a b

(* Footprints use canonical table names (the name the world records deltas
   under), regardless of query-side casing. *)
let canonical_footprint db alg =
  List.fold_left
    (fun acc t -> union_fp acc [ Table.name (Database.table db t) ])
    [] (Algebra.base_tables alg)

let empty_bag () = Bag.create ~size:1 ()

let mk_node alg ~schema ~kind ~footprint =
  { alg; schema; kind; current = empty_bag (); footprint; live = false; last_d = None;
    last_out = empty_bag () }

(* ------------------------------------------------------------------ *)
(* Subplan cache (multi-query optimization). A cache maps the canonical
   structural key of a subtree — its algebra, under [Algebra.equal] — to
   the one shared node maintaining it, with a reference count of direct
   parents (enclosing cache entries plus registered views whose root it
   is). Sharing is sound because every view attached to one registry sees
   exactly the same delta stream, so a shared node's state is equally
   current for all its parents. *)

module AH = Hashtbl.Make (struct
  type t = Algebra.t

  let equal = Algebra.equal
  let hash = Algebra.hash
end)

type centry = { cnode : node; mutable refs : int }
type cache = centry AH.t

let cache_create () : cache = AH.create 64
let cache_nodes (c : cache) = AH.length c
let cache_shared (c : cache) = AH.fold (fun _ e acc -> if e.refs > 1 then acc + 1 else acc) c 0

(* The sub-plans [build_shell] recurses into, mirrored exactly: the
   release cascade walks keys, not nodes, so this must stay in lockstep
   with the construction below (K_recompute leaves build no children;
   limit-less Order_by aliases its child's node). *)
let sub_algs (alg : Algebra.t) : Algebra.t list =
  match alg with
  | Scan _ | Diff _ | Order_by { limit = Some _; _ } -> []
  | Select (_, c) | Project (_, c) | Distinct c | Order_by { limit = None; child = c; _ } ->
    [ c ]
  | Product (a, b) | Join (_, a, b) | Union (a, b) -> [ a; b ]
  | Group_by { child; _ } -> [ child ]
  | Count_join { child; sub; _ } -> [ child; sub ]

let rec build_shell ?cache db (alg : Algebra.t) : node =
  let hit =
    match cache with
    | None -> None
    | Some c -> (
      match AH.find_opt c alg with
      | Some e ->
        e.refs <- e.refs + 1;
        Some e.cnode
      | None -> None)
  in
  match hit with
  | Some node -> node
  | None ->
    let node = build_fresh ?cache db alg in
    (match cache with None -> () | Some c -> AH.replace c alg { cnode = node; refs = 1 });
    node

and build_fresh ?cache db (alg : Algebra.t) : node =
  match alg with
  | Scan { table; _ } ->
    let t = Database.table db table in
    let name = Table.name t in
    mk_node alg ~schema:(Algebra.output_schema db alg)
      ~kind:(K_scan { sc_table = name; sc_owned = false })
      ~footprint:[ name ]
  | Select (p, child_alg) ->
    let schema = Algebra.output_schema db alg in
    let child = build_shell ?cache db child_alg in
    let keep = Expr.bind_pred child.schema p in
    let eqs = Expr.eq_constants child.schema p in
    mk_node alg ~schema ~kind:(K_select (keep, eqs, child)) ~footprint:child.footprint
  | Project (cols, child_alg) ->
    let schema = Algebra.output_schema db alg in
    let child = build_shell ?cache db child_alg in
    let _, positions = Schema.project child.schema cols in
    mk_node alg ~schema ~kind:(K_project (positions, child)) ~footprint:child.footprint
  | Product (a, b) ->
    let schema = Algebra.output_schema db alg in
    let left = build_shell ?cache db a in
    let right = build_shell ?cache db b in
    mk_node alg ~schema
      ~kind:(K_join { pred = None; left; right; strategy = J_nested })
      ~footprint:(union_fp left.footprint right.footprint)
  | Join (p, a, b) ->
    let schema = Algebra.output_schema db alg in
    let left = build_shell ?cache db a in
    let right = build_shell ?cache db b in
    let strategy =
      match Expr.equi_join_pairs p ~left:left.schema ~right:right.schema with
      | Some (pairs, residual) ->
        let left_pos = Array.of_list (List.map fst pairs) in
        let right_pos = Array.of_list (List.map snd pairs) in
        let keep =
          Option.map (Expr.bind_pred (Schema.concat left.schema right.schema)) residual
        in
        J_indexed
          { left_pos; right_pos;
            left_idx = Key_index.create left_pos;
            right_idx = Key_index.create right_pos;
            keep }
      | None -> J_nested
    in
    mk_node alg ~schema
      ~kind:(K_join { pred = Some p; left; right; strategy })
      ~footprint:(union_fp left.footprint right.footprint)
  | Distinct child_alg ->
    let schema = Algebra.output_schema db alg in
    let child = build_shell ?cache db child_alg in
    mk_node alg ~schema ~kind:(K_distinct child) ~footprint:child.footprint
  | Union (a, b) ->
    let schema = Algebra.output_schema db alg in
    let left = build_shell ?cache db a in
    let right = build_shell ?cache db b in
    mk_node alg ~schema ~kind:(K_union (left, right))
      ~footprint:(union_fp left.footprint right.footprint)
  | Diff _ ->
    let schema = Algebra.output_schema db alg in
    mk_node alg ~schema ~kind:K_recompute ~footprint:(canonical_footprint db alg)
  | Group_by { keys; aggs; child = child_alg } ->
    let schema = Algebra.output_schema db alg in
    let child = build_shell ?cache db child_alg in
    let keys_pos = Array.of_list (List.map (Schema.index_of child.schema) keys) in
    let spec = Group_acc.spec_of child.schema aggs in
    let global = match keys with [] -> true | _ :: _ -> false in
    mk_node alg ~schema
      ~kind:(K_group { g_child = child; keys_pos; spec; groups = RH.create 64; global })
      ~footprint:child.footprint
  | Order_by { limit = None; child = child_alg; _ } ->
    (* Without a limit, ordering does not change the multiset; validate the
       sort keys eagerly, then maintain the child directly. *)
    ignore (Algebra.output_schema db alg : Schema.t);
    build_shell ?cache db child_alg
  | Order_by { limit = Some _; _ } ->
    let schema = Algebra.output_schema db alg in
    mk_node alg ~schema ~kind:K_recompute ~footprint:(canonical_footprint db alg)
  | Count_join { child = child_alg; key; sub = sub_alg; sub_key; _ } ->
    let schema = Algebra.output_schema db alg in
    let child = build_shell ?cache db child_alg in
    let sub = build_shell ?cache db sub_alg in
    let key_pos = Schema.index_of child.schema key in
    let sub_key_pos = Schema.index_of sub.schema sub_key in
    mk_node alg ~schema
      ~kind:
        (K_count_join
           { c_child = child; c_sub = sub; key_pos; sub_key_pos;
             sub_counts = VH.create 64; child_idx = Key_index.create [| key_pos |] })
      ~footprint:(union_fp child.footprint sub.footprint)

(* ------------------------------------------------------------------ *)
(* Delta propagation.  [delta db node d] returns the signed change of the
   node's result, folds it into [node.current], and updates node-local
   state.  Children are processed first, so sibling [current] values and
   join indexes hold the post-update state, matching the new-state
   maintenance rule δ(R⋈S) = δR⋈S' + R'⋈δS − δR⋈δS. *)

(* Observability: signed delta cardinality flowing out of each operator
   during maintenance ("view.<op>.delta_rows", see docs/OBSERVABILITY.md),
   plus the indexed-join probe volume ("view.join.probe_rows") — the |Δ|
   terms that make Algorithm 1 cheap.  Compare with the "relop.<op>.*"
   counters a naive re-evaluation accumulates: an equi-join view performs
   zero [Eval.eval] calls during maintenance, so those stay flat. *)
let vop_names =
  [| "scan"; "select"; "project"; "join"; "distinct"; "union"; "recompute";
     "group_by"; "count_join" |]

let vop_index = function
  | K_scan _ -> 0
  | K_select _ -> 1
  | K_project _ -> 2
  | K_join _ -> 3
  | K_distinct _ -> 4
  | K_union _ -> 5
  | K_recompute -> 6
  | K_group _ -> 7
  | K_count_join _ -> 8

let vop_delta_rows =
  (* pdb_lint: allow R7 — module initialisation names one counter per operator, once per process *)
  Array.map (fun n -> Obs.Metrics.counter ("view." ^ n ^ ".delta_rows")) vop_names

let m_probe_rows = Obs.Metrics.counter "view.join.probe_rows"
let g_index_size = Obs.Metrics.gauge "view.join.index_size"
let g_materialized_rows = Obs.Metrics.gauge "view.node.materialized_rows"

(* Counted here because the per-batch memo lives on the node, but the
   serving registry's shared-plan fan-out is the only producer of hits:
   each hit is one subtree maintenance another registered query got for
   free this batch. *)
let m_dedup_hits = Obs.Metrics.counter "serve.dedup_hits"

let touches d footprint =
  List.exists
    (fun t ->
      match Delta.for_table d t with Some b -> not (Bag.is_empty b) | None -> false)
    footprint

let rec delta db node (d : Delta.t) : Bag.t =
  match node.last_d with
  | Some d0 when d0 == d ->
    (* Batch already processed through this (shared) node by another
       parent: its effect is folded into [current]; hand back the output
       bag. Callers must treat it as read-only. *)
    Obs.Metrics.incr m_dedup_hits;
    node.last_out
  | Some _ | None ->
    let out =
      if not (touches d node.footprint) then Bag.create ~size:1 ()
      else begin
        let out = delta_node db node d in
        (match node.kind with
        | K_scan { sc_owned = false; _ } -> () (* holds no rows *)
        | _ -> Bag.add_bag node.current out);
        if Obs.Metrics.enabled () then
          Obs.Metrics.add vop_delta_rows.(vop_index node.kind) (Bag.distinct_cardinal out);
        out
      end
    in
    node.last_d <- Some d;
    node.last_out <- out;
    out

and delta_node db node (d : Delta.t) : Bag.t =
  match node.kind with
  | K_scan { sc_table = table; _ } -> (
    match Delta.for_table d table with
    | Some b -> Bag.copy b
    | None -> Bag.create ~size:1 ())
  | K_select (keep, _, child) -> Bag.filter keep (delta db child d)
  | K_project (positions, child) ->
    Bag.map_rows (fun r -> Array.map (fun i -> Row.get r i) positions) (delta db child d)
  | K_join { pred; left; right; strategy } -> (
    let da = delta db left d in
    let db_ = delta db right d in
    let out = Bag.create () in
    match strategy with
    | J_indexed { left_pos; right_pos; left_idx; right_idx; keep } ->
      (* Bring the indexes to the post-update state, then every delta row is
         an index probe — O(|Δ|) and no sibling re-evaluation. *)
      Key_index.add_bag left_idx da;
      Key_index.add_bag right_idx db_;
      let keep = match keep with None -> fun _ -> true | Some f -> f in
      let probes = ref 0 in
      Bag.iter
        (fun row c ->
          let matches = Key_index.probe right_idx (Key_index.extract left_pos row) in
          probes := !probes + Bag.distinct_cardinal matches;
          Bag.iter
            (fun brow bc ->
              let joined = Row.append row brow in
              if keep joined then Bag.add ~count:(c * bc) out joined)
            matches)
        da;
      Bag.iter
        (fun row c ->
          let matches = Key_index.probe left_idx (Key_index.extract right_pos row) in
          probes := !probes + Bag.distinct_cardinal matches;
          Bag.iter
            (fun brow bc ->
              let joined = Row.append brow row in
              if keep joined then Bag.add ~count:(c * bc) out joined)
            matches)
        db_;
      if (not (Bag.is_empty da)) && not (Bag.is_empty db_) then
        Bag.add_bag ~scale:(-1) out
          (Eval.join_bags ?pred left.schema right.schema da db_).Eval.bag;
      if Obs.Metrics.enabled () then Obs.Metrics.add m_probe_rows !probes;
      out
    | J_nested ->
      (* No equi key: nested loops against the sibling's materialized state
         (never a subtree re-evaluation). *)
      if not (Bag.is_empty da) then
        Bag.add_bag out
          (Eval.join_bags ?pred left.schema right.schema da right.current).Eval.bag;
      if not (Bag.is_empty db_) then
        Bag.add_bag out
          (Eval.join_bags ?pred left.schema right.schema left.current db_).Eval.bag;
      if (not (Bag.is_empty da)) && not (Bag.is_empty db_) then
        Bag.add_bag ~scale:(-1) out
          (Eval.join_bags ?pred left.schema right.schema da db_).Eval.bag;
      out)
  | K_distinct child ->
    let dc = delta db child d in
    (* [child.current] is already post-update, so the pre-update count of a
       changed row is its current count minus its delta. *)
    let out = Bag.create () in
    Bag.iter
      (fun row c ->
        let after = Bag.count child.current row in
        let before = after - c in
        if before <= 0 && after > 0 then Bag.add out row
        else if before > 0 && after <= 0 then Bag.remove out row)
      dc;
    out
  | K_union (a, b) ->
    (* The child's bag may be a memoized result other parents will read —
       never mutate it in place. *)
    let out = Bag.copy (delta db a d) in
    Bag.add_bag out (delta db b d);
    out
  | K_recompute ->
    let fresh = Bag.copy (Eval.eval db node.alg).Eval.bag in
    Bag.add_bag ~scale:(-1) fresh node.current;
    fresh
  | K_group info ->
    let dc = delta db info.g_child d in
    if Bag.is_empty dc then Bag.create ~size:1 ()
    else begin
      (* Pass 1: snapshot old output rows of affected groups; pass 2: fold
         the child delta into accumulators; pass 3: emit new output rows. *)
      let affected : Row.t list RH.t = RH.create 8 in
      let note k = if not (RH.mem affected k) then RH.replace affected k [] in
      Bag.iter (fun row _ -> note (group_key info row)) dc;
      let out = Bag.create () in
      RH.iter
        (fun k _ ->
          match RH.find_opt info.groups k with
          | Some acc when (not (Group_acc.is_empty acc)) || info.global ->
            Bag.remove out (Array.append k (Group_acc.finalize info.spec acc))
          | _ -> ())
        affected;
      Bag.iter
        (fun row c -> Group_acc.add info.spec (group_acc info (group_key info row)) row c)
        dc;
      RH.iter
        (fun k _ ->
          match RH.find_opt info.groups k with
          | Some acc ->
            if (not (Group_acc.is_empty acc)) || info.global then
              Bag.add out (Array.append k (Group_acc.finalize info.spec acc))
            else RH.remove info.groups k
          | None -> ())
        affected;
      out
    end
  | K_count_join info ->
    let dchild = delta db info.c_child d in
    let dsub = delta db info.c_sub d in
    let out = Bag.create () in
    (* Aggregate the sub delta per key and update the stored counts. *)
    let dcounts = VH.create 8 in
    Bag.iter
      (fun row c ->
        let k = Row.get row info.sub_key_pos in
        VH.replace dcounts k (c + Option.value ~default:0 (VH.find_opt dcounts k)))
      dsub;
    let changed = VH.fold (fun k dc acc -> if dc <> 0 then (k, dc) :: acc else acc) dcounts [] in
    List.iter
      (fun (k, dc) ->
        let n = cj_count info k + dc in
        if n = 0 then VH.remove info.sub_counts k else VH.replace info.sub_counts k n)
      changed;
    (* Part A: changed child rows, extended with the *new* count. *)
    Bag.iter
      (fun row c ->
        let n = cj_count info (Row.get row info.key_pos) in
        Bag.add ~count:c out (Array.append row [| Value.Int n |]))
      dchild;
    (* Part B: unchanged-by-this-batch child rows whose key count changed.
       [child_idx] still holds the pre-batch child, so a probe is exactly
       child_old restricted to the key. *)
    List.iter
      (fun (k, dc) ->
        let new_n = cj_count info k in
        let old_n = new_n - dc in
        Bag.iter
          (fun row c ->
            Bag.add ~count:(-c) out (Array.append row [| Value.Int old_n |]);
            Bag.add ~count:c out (Array.append row [| Value.Int new_n |]))
          (Key_index.probe_value info.child_idx k))
      changed;
    (* Finally fold the child delta into the by-key materialization. *)
    Key_index.add_bag info.child_idx dchild;
    out

let children node =
  match node.kind with
  | K_scan _ | K_recompute -> []
  | K_select (_, _, c) | K_project (_, c) | K_distinct c -> [ c ]
  | K_join { left; right; _ } -> [ left; right ]
  | K_union (a, b) -> [ a; b ]
  | K_group g -> [ g.g_child ]
  | K_count_join cj -> [ cj.c_child; cj.c_sub ]

(* Gauges: total view-owned materialized rows (owned scan copies count;
   a non-owned scan holds none) and total distinct join-index keys, across
   the whole tree of the view last updated. *)
let rec record_sizes node (rows, keys) =
  let rows = rows + Bag.distinct_cardinal node.current in
  let keys =
    match node.kind with
    | K_join { strategy = J_indexed { left_idx; right_idx; _ }; _ } ->
      keys + Key_index.distinct_keys left_idx + Key_index.distinct_keys right_idx
    | K_count_join cj -> keys + Key_index.distinct_keys cj.child_idx
    | _ -> keys
  in
  List.fold_left (fun acc c -> record_sizes c acc) (rows, keys) (children node)

let update v d =
  if not (Delta.is_empty d) then begin
    let dq = delta v.db v.root d in
    (* O(|Δ|) consistency check on just the touched rows. *)
    Bag.iter
      (fun row _ ->
        if Bag.count v.root.current row < 0 then
          failwith "View.update: negative count — delta inconsistent with view state")
      dq;
    if Obs.Metrics.enabled () then begin
      let rows, keys = record_sizes v.root (0, 0) in
      Obs.Metrics.set_gauge g_materialized_rows (float_of_int rows);
      Obs.Metrics.set_gauge g_index_size (float_of_int keys)
    end
  end

(* A scan node's [current] on (re)build: an owned scan copies the
   table's rows — Table.rows is shared and read-only — and a non-owned one
   stays empty. *)
let scan_rows db s =
  if s.sc_owned then Bag.copy (Table.rows (Database.table db s.sc_table)) else empty_bag ()

(* The bag a parent reads a child's post-build state from: a non-owned
   scan's rows come from the table, every other node's from [current]. *)
let source_bag db child =
  match child.kind with
  | K_scan { sc_owned = false; sc_table } -> Table.rows (Database.table db sc_table)
  | _ -> child.current

(* Mark the scan nodes whose [current] is read while deltas flow (a
   J_nested sibling, a DISTINCT parent, or the root). *)
let mark_scan_owned db node =
  match node.kind with
  | K_scan s when not s.sc_owned ->
    s.sc_owned <- true;
    (* A shared scan already live as non-owned flips mid-flight: it starts
       maintaining a copy, seeded from the current table state (equally
       current for every view sharing it). *)
    if node.live then node.current <- scan_rows db s
  | _ -> ()

let rec mark_owned_scans db node =
  (match node.kind with
  | K_join { strategy = J_nested; left; right; _ } ->
    mark_scan_owned db left;
    mark_scan_owned db right
  | K_distinct child -> mark_scan_owned db child
  | _ -> ());
  List.iter (mark_owned_scans db) (children node)

(* A node's derived state — join indexes, group accumulators, COUNT
   maps — built from its children's bags; reset then derives [current]
   from it. *)
let rebuild_aux db node =
  match node.kind with
  | K_scan _ | K_select _ | K_project _ | K_distinct _ | K_union _ | K_recompute -> ()
  | K_join { strategy = J_nested; _ } -> ()
  | K_join { strategy = J_indexed { left_idx; right_idx; _ }; left; right; _ } ->
    Key_index.clear left_idx;
    Key_index.add_bag left_idx (source_bag db left);
    Key_index.clear right_idx;
    Key_index.add_bag right_idx (source_bag db right)
  | K_group info ->
    RH.reset info.groups;
    Bag.iter
      (fun row c -> Group_acc.add info.spec (group_acc info (group_key info row)) row c)
      (source_bag db info.g_child);
    (* A global aggregate over an empty input still has its one group. *)
    if info.global then ignore (group_acc info [||] : Group_acc.t)
  | K_count_join info ->
    VH.reset info.sub_counts;
    Bag.iter
      (fun row c ->
        let k = Row.get row info.sub_key_pos in
        VH.replace info.sub_counts k (c + cj_count info k))
      (source_bag db info.c_sub);
    Key_index.clear info.child_idx;
    Key_index.add_bag info.child_idx (source_bag db info.c_child)

(* A node's [current] after (re)build, derived from its children's bags
   and its own derived state. *)
let reset_current db node : Bag.t =
  match node.kind with
  | K_scan s -> scan_rows db s
  | K_select (keep, eqs, child) -> (
    match child.kind with
    | K_scan { sc_owned = false; sc_table } -> Table.select (Database.table db sc_table) eqs keep
    | _ -> Bag.filter keep child.current)
  | K_project (positions, child) ->
    Bag.map_rows (fun r -> Array.map (fun i -> Row.get r i) positions) (source_bag db child)
  | K_join { pred; left; right; _ } ->
    (Eval.join_bags ?pred left.schema right.schema (source_bag db left) (source_bag db right))
      .Eval.bag
  | K_distinct child ->
    let out = Bag.create () in
    Bag.iter (fun r c -> if c > 0 then Bag.add out r) (source_bag db child);
    out
  | K_union (a, b) ->
    let out = Bag.copy (source_bag db a) in
    Bag.add_bag out (source_bag db b);
    out
  | K_recompute -> Bag.copy (Eval.eval db node.alg).Eval.bag
  | K_group info ->
    let out = Bag.create () in
    RH.iter
      (fun k acc -> Bag.add out (Array.append k (Group_acc.finalize info.spec acc)))
      info.groups;
    out
  | K_count_join info ->
    let out = Bag.create () in
    Bag.iter
      (fun row c ->
        Bag.add ~count:c out
          (Array.append row [| Value.Int (cj_count info (Row.get row info.key_pos)) |]))
      (source_bag db info.c_child);
    out

let rec reset_node db node : unit =
  (* Build [current] and node-local state from the current database. A
     node that is already [live] — shared from the subplan cache and
     maintained by its existing parents — is skipped, so a new
     registration only pays for the nodes it actually adds. *)
  if not node.live then begin
    List.iter (reset_node db) (children node);
    node.live <- true;
    node.last_d <- None;
    rebuild_aux db node;
    node.current <- reset_current db node
  end

let create ?cache db alg =
  let root = build_shell ?cache db alg in
  mark_owned_scans db root;
  mark_scan_owned db root;
  reset_node db root;
  { db; alg; root }

(* Drop one parent reference from every cache entry the view's plan
   acquired at build time. An entry whose count reaches zero has no
   enclosing entry and is no view's root, so nothing will route deltas to
   it again — evicting it both frees the memory and guarantees a later
   registration of the same subplan rebuilds from the live database
   instead of adopting stale state. *)
let release (cache : cache) v =
  let rec drop alg =
    match AH.find_opt cache alg with
    | None -> ()
    | Some e ->
      e.refs <- e.refs - 1;
      if e.refs <= 0 then begin
        AH.remove cache alg;
        List.iter drop (sub_algs alg)
      end
  in
  drop v.alg
