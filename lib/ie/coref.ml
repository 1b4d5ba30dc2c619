open Relational

let table_name = "MENTION"

type t = {
  world : Core.World.t;
  strings : string array;
  cluster : int array; (* mirror of the CLUSTER column *)
  mutable next_cluster : int;
}

let schema () =
  Schema.make
    [ { Schema.name = "mention_id"; ty = Value.T_int };
      { Schema.name = "string"; ty = Value.T_text };
      { Schema.name = "cluster"; ty = Value.T_int } ]

let load db ~strings =
  let t = Database.create_table db ~pk:"mention_id" ~name:table_name (schema ()) in
  Array.iteri
    (fun i s -> Table.insert t (Row.make [ Value.Int i; Value.Text s; Value.Int i ]))
    strings;
  let world = Core.World.create db in
  ( world,
    { world;
      strings = Array.copy strings;
      cluster = Array.init (Array.length strings) Fun.id;
      next_cluster = Array.length strings } )

let n_mentions t = Array.length t.strings
let cluster_of t i = t.cluster.(i)

let tokens_of s = String.split_on_char ' ' s |> List.concat_map (String.split_on_char '.')

let affinity t i j =
  let a = t.strings.(i) and b = t.strings.(j) in
  if a = b then 4.0
  else begin
    (* Shared word (e.g. "John Smith" vs "J. Smith" sharing "Smith"). The
       magnitudes must beat the entropy of the partition space, which grows
       with the number of mentions. *)
    let ta = tokens_of a and tb = tokens_of b in
    if List.exists (fun w -> String.length w > 1 && List.mem w tb) ta then 2.5 else -3.0
  end

let members t c =
  let out = ref [] in
  Array.iteri (fun i ci -> if ci = c then out := i :: !out) t.cluster;
  !out

let set_cluster t ~mention ~cluster =
  if t.cluster.(mention) <> cluster then begin
    t.cluster.(mention) <- cluster;
    t.next_cluster <- max t.next_cluster (cluster + 1);
    Core.World.set_field t.world
      (Core.Field.make ~table:table_name ~key:(Value.Int mention) ~column:"cluster")
      (Value.Int cluster)
  end

(* Δscore of moving mention m from its cluster to [target]: lose the
   affinities to old-cluster mates, gain those to new-cluster mates. *)
let move_delta t m target =
  let old_c = t.cluster.(m) in
  if old_c = target then 0.
  else begin
    let acc = ref 0. in
    Array.iteri
      (fun j cj ->
        if j <> m then begin
          if cj = old_c then acc := !acc -. affinity t m j;
          if cj = target then acc := !acc +. affinity t m j
        end)
      t.cluster;
    !acc
  end

let distinct_clusters t =
  let seen = Hashtbl.create 16 in
  Array.iter (fun c -> Hashtbl.replace seen c ()) t.cluster;
  Hashtbl.fold (fun c () acc -> c :: acc) seen []

let move_proposal t : Core.World.t Mcmc.Proposal.t =
  fun rng _world ->
    let n = n_mentions t in
    let m = Mcmc.Rng.int rng n in
    let source = t.cluster.(m) in
    let source_singleton = List.length (members t source) = 1 in
    (* Targets: every existing cluster plus one fresh singleton.  q is
       uniform over the same-sized candidate set in both directions except
       for singleton bookkeeping; compute both candidate counts exactly. *)
    let existing = distinct_clusters t in
    let fresh = t.next_cluster in
    let candidates =
      (if source_singleton then [] else [ fresh ])
      @ List.filter (fun c -> c <> source) existing
    in
    match candidates with
    | [] ->
      { Mcmc.Proposal.delta_log_pi = 0.; log_q_ratio = 0.; commit = (fun () -> ()) }
    | _ ->
      let target = List.nth candidates (Mcmc.Rng.int rng (List.length candidates)) in
      let delta = move_delta t m target in
      (* Count candidate moves in the reverse direction (m back from target
         to source). Cluster count after the move: *)
      let n_clusters = List.length existing in
      let clusters_after =
        n_clusters
        + (if target = fresh then 1 else 0)
        - if source_singleton then 1 else 0
      in
      let target_singleton_after = target = fresh in
      let forward_candidates = List.length candidates in
      let reverse_candidates =
        (* from w': targets are existing clusters except m's (= target's)
           cluster, plus a fresh one unless m is a singleton in w'. *)
        (clusters_after - 1) + if target_singleton_after then 0 else 1
      in
      let log_q_ratio =
        log (float_of_int forward_candidates) -. log (float_of_int reverse_candidates)
      in
      { Mcmc.Proposal.delta_log_pi = delta;
        log_q_ratio;
        commit = (fun () -> set_cluster t ~mention:m ~cluster:target) }

(* Split-merge (§3.4's constraint-preserving example).

   Merge (i, j in clusters A ≠ B): any of the 2|A||B| ordered cross pairs
   produces the same merged world, so q(w'|w) = 2|A||B| / n(n−1). The
   reverse split must pick a cross pair and then recreate (A, B) exactly
   with its uniform binary assignment of the other |A|+|B|−2 members:
   q(w|w') = [2|A||B| / n(n−1)] · (1/2)^(|A|+|B|−2). Hence
   log q-ratio = −(|A∪B|−2)·log 2 for a merge, and +(|M|−2)·log 2 for a
   split of M. *)
let split_merge_proposal t : Core.World.t Mcmc.Proposal.t =
  fun rng _world ->
    let n = n_mentions t in
    if n < 2 then { Mcmc.Proposal.delta_log_pi = 0.; log_q_ratio = 0.; commit = (fun () -> ()) }
    else begin
      let i = Mcmc.Rng.int rng n in
      let j =
        let j = Mcmc.Rng.int rng (n - 1) in
        if j >= i then j + 1 else j
      in
      let ci = t.cluster.(i) and cj = t.cluster.(j) in
      if ci <> cj then begin
        (* Merge B into A. *)
        let a = members t ci and b = members t cj in
        let cross =
          List.fold_left
            (fun acc x -> List.fold_left (fun acc y -> acc +. affinity t x y) acc b)
            0. a
        in
        let m_size = List.length a + List.length b in
        { Mcmc.Proposal.delta_log_pi = cross;
          log_q_ratio = -.(float_of_int (m_size - 2) *. log 2.);
          commit = (fun () -> List.iter (fun x -> set_cluster t ~mention:x ~cluster:ci) b) }
      end
      else begin
        (* Split the shared cluster M, separating i and j. *)
        let m_members = members t ci in
        let side_j = ref [ j ] in
        let side_i = ref [ i ] in
        List.iter
          (fun x ->
            if x <> i && x <> j then
              if Mcmc.Rng.bool rng then side_i := x :: !side_i else side_j := x :: !side_j)
          m_members;
        let cross =
          List.fold_left
            (fun acc x -> List.fold_left (fun acc y -> acc +. affinity t x y) acc !side_j)
            0. !side_i
        in
        let m_size = List.length m_members in
        let fresh = t.next_cluster in
        let moved = !side_j in
        { Mcmc.Proposal.delta_log_pi = -.cross;
          log_q_ratio = float_of_int (m_size - 2) *. log 2.;
          commit = (fun () -> List.iter (fun x -> set_cluster t ~mention:x ~cluster:fresh) moved) }
      end
    end
