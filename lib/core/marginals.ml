open Relational

module RH = Hashtbl.Make (struct
  type t = Row.t

  let equal = Row.equal
  let hash = Row.hash
end)

type t = { counts : int RH.t; mutable z : int }

let create () = { counts = RH.create 64; z = 0 }

let observe m answer =
  Bag.iter
    (fun row c ->
      if c > 0 then RH.replace m.counts row (1 + Option.value ~default:0 (RH.find_opt m.counts row)))
    answer;
  m.z <- m.z + 1

let samples m = m.z

(* The one z = 0 convention (marginals.mli): no samples means no
   evidence, so every probability is 0. Each deriving function below goes
   through this helper — [probability], [estimates] and
   [squared_error_to] previously disagreed ([max 1 z] vs an explicit
   0-at-zero branch), which is invisible through the public API (counts
   are empty whenever z = 0) but made the checkpoint-restored path
   depend on which accessor a caller picked. *)
let ratio m c = if Int.equal m.z 0 then 0. else float_of_int c /. float_of_int m.z

let probability m row = ratio m (Option.value ~default:0 (RH.find_opt m.counts row))

let estimates m =
  RH.fold (fun row c acc -> (row, ratio m c) :: acc) m.counts []
  |> List.sort (fun (a, _) (b, _) -> Row.compare a b)

let counts m =
  RH.fold (fun row c acc -> (row, c) :: acc) m.counts []
  |> List.sort (fun (a, _) (b, _) -> Row.compare a b)

let of_counts ~samples entries =
  if samples < 0 then invalid_arg "Marginals.of_counts: negative sample count";
  let m = create () in
  List.iter
    (fun (row, c) ->
      if c < 0 || c > samples then
        invalid_arg "Marginals.of_counts: count outside [0, samples]";
      if c > 0 then RH.replace m.counts row c)
    entries;
  m.z <- samples;
  m

let merge ms =
  let out = create () in
  List.iter
    (fun m ->
      RH.iter
        (fun row c -> RH.replace out.counts row (c + Option.value ~default:0 (RH.find_opt out.counts row)))
        m.counts;
      out.z <- out.z + m.z)
    ms;
  out

(* Shard union. Shards partition the database, so at aligned sample t
   the full-corpus answer is the disjoint union of the shard answers: a
   row only one shard can produce keeps its exact count, and the
   normalizer stays the per-shard z (NOT the sum — chain-merging [merge]
   would dilute a row with probability 1 on its owning shard down to
   1/n_shards). A row several shards emit gets the union bound
   min(z, Σ counts), exact when the shard events are disjoint. *)
let merge_shards ms =
  match ms with
  | [] -> create ()
  | m0 :: rest ->
    List.iter
      (fun m ->
        if m.z <> m0.z then
          invalid_arg "Marginals.merge_shards: shards observed different sample counts")
      rest;
    let out = create () in
    List.iter
      (fun m ->
        RH.iter
          (fun row c ->
            RH.replace out.counts row
              (min m0.z (c + Option.value ~default:0 (RH.find_opt out.counts row))))
          m.counts)
      ms;
    out.z <- m0.z;
    out

let squared_error_to ~reference m =
  let seen = RH.create 64 in
  let acc = ref 0. in
  List.iter
    (fun (row, p) ->
      RH.replace seen row ();
      let q = probability m row in
      acc := !acc +. ((p -. q) ** 2.))
    reference;
  RH.iter
    (fun row c ->
      if not (RH.mem seen row) then begin
        let q = ratio m c in
        acc := !acc +. (q ** 2.)
      end)
    m.counts;
  !acc
