(* The bench gate's self-test, generated from its declarations
   (bench/gate/gate.ml): every floor or ceiling is set just past its
   limit at each size the committed BENCH_*.json files carry, every
   required boolean is flipped and removed, every slack floor gets a
   baseline 3x the fresh value, and an undeclared BENCH_rogue.json
   appears. The gate must reject each case naming the check that was
   seeded, and accept the committed files. The declared limits
   themselves are pinned by one table. *)

module J = Obs.Jsonx

let committed =
  List.map
    (fun g ->
      let text = In_channel.with_open_bin ("../" ^ g.Gate.file) In_channel.input_all in
      (g.Gate.file, J.parse text))
    Gate.groups

let run ?(extra = []) ?(baseline = []) docs =
  Gate.run ~say:ignore ~files:(extra @ List.map fst docs)
    ~read:(fun f -> Option.map J.to_string (List.assoc_opt f docs))
    ~committed:(fun f -> Option.map J.to_string (List.assoc_opt f baseline))

let replacing file doc docs = (file, doc) :: List.remove_assoc file docs

let rejects ?extra ?baseline ~check docs () =
  match run ?extra ?baseline docs with
  | Ok () -> Alcotest.failf "gate accepted a seeded %s regression" check
  | Error f ->
    Alcotest.(check string)
      (Printf.sprintf "failure (%s) names" f.Gate.reason)
      check f.Gate.check

(* ---------- rewriting documents ---------- *)

let set_field row key x =
  match row with
  | J.Obj fields ->
    J.Obj (List.map (fun (k, v) -> if String.equal k key then (k, J.Num x) else (k, v)) fields)
  | v -> v

(* [doc] with the rows of [rows] rewritten by [f size row]; [None] drops
   the row. *)
let map_rows rows doc f =
  let kept =
    List.filter_map
      (fun (n, r) -> Option.map (fun r -> (n, r)) (f n r))
      (Gate.sized_rows rows doc)
  in
  let replace key v =
    match doc with
    | J.Obj fields ->
      J.Obj (List.map (fun (k, x) -> if String.equal k key then (k, v) else (k, x)) fields)
    | d -> d
  in
  match rows with
  | Gate.Array { key; _ } -> replace key (J.Arr (List.map snd kept))
  | Gate.Single { key; _ } -> (
    match kept with [ (_, r) ] -> replace key r | _ -> doc)
  | Gate.Tuples key ->
    replace key
      (J.Obj
         (List.concat_map
            (fun (n, r) ->
              match r with
              | J.Obj cells ->
                List.map (fun (series, v) -> (Printf.sprintf "%s/%dk-tuples" series n, v)) cells
              | _ -> [])
            kept))

let numerator = function
  | Gate.Field f | Gate.Ratio (f, _) | Gate.Per_size f | Gate.Versus_size (f, _) -> f

(* [doc] with the value of check [c] at its largest row scaled to [target]. *)
let seed c doc target =
  let n, v = Gate.measure "seed" c doc in
  let f = numerator c.Gate.value in
  map_rows c.Gate.rows doc (fun m r ->
      if m = n then
        match Gate.number r f with
        | Some x -> Some (set_field r f (x *. target /. v))
        | None -> Some r
      else Some r)

(* ---------- cases ---------- *)

let limit_cases g c =
  let doc = List.assoc g.Gate.file committed in
  List.filter_map
    (fun (n, _) ->
      match Gate.limit_at c.Gate.bound n with
      | None -> None
      | Some limit ->
        let truncated = map_rows c.Gate.rows doc (fun m r -> if m > n then None else Some r) in
        let target, kind =
          match c.Gate.bound with
          | Gate.Floor _ -> (limit *. 0.99, "floor")
          | Gate.Ceiling _ -> (limit *. 1.01, "ceiling")
        in
        let check = g.Gate.group ^ "." ^ c.Gate.name in
        Some
          (Alcotest.test_case
             (Printf.sprintf "%s %s at %s" check kind (Gate.size_label c.Gate.rows n))
             `Quick
             (rejects ~check (replacing g.Gate.file (seed c truncated target) committed))))
    (Gate.sized_rows c.Gate.rows doc)

let slack_cases g c =
  match c.Gate.bound with
  | Gate.Floor { slack = true; _ } ->
    let doc = List.assoc g.Gate.file committed in
    let _, v = Gate.measure "seed" c doc in
    let check = g.Gate.group ^ "." ^ c.Gate.name ^ ".slack" in
    [ Alcotest.test_case (check ^ " baseline 3x fresh") `Quick
        (rejects ~check
           ~baseline:(replacing g.Gate.file (seed c doc (3. *. v)) committed)
           committed) ]
  | _ -> []

(* [doc] with the [i]th occurrence (in document order) of [key] set false. *)
let flip_nth key i doc =
  let seen = ref (-1) in
  let rec go = function
    | J.Obj fields ->
      J.Obj
        (List.map
           (fun (k, v) ->
             if String.equal k key then begin
               incr seen;
               (k, if !seen = i then J.Bool false else go v)
             end
             else (k, go v))
           fields)
    | J.Arr items -> J.Arr (List.map go items)
    | v -> v
  in
  go doc

let rec drop key = function
  | J.Obj fields ->
    J.Obj
      (List.filter_map
         (fun (k, v) -> if String.equal k key then None else Some (k, drop key v))
         fields)
  | J.Arr items -> J.Arr (List.map (drop key) items)
  | v -> v

let bool_cases g =
  let doc = List.assoc g.Gate.file committed in
  List.concat_map
    (fun key ->
      let check = g.Gate.group ^ "." ^ key in
      Alcotest.test_case (check ^ " missing") `Quick
        (rejects ~check (replacing g.Gate.file (drop key doc) committed))
      :: List.mapi
           (fun i _ ->
             Alcotest.test_case (Printf.sprintf "%s flipped in row %d" check i) `Quick
               (rejects ~check (replacing g.Gate.file (flip_nth key i doc) committed)))
           (Gate.occurrences key doc))
    g.Gate.must_hold

(* The seeded cases follow whatever the declarations say, so the limits
   themselves are pinned here: loosening one must show up in this table. *)
let test_declared_limits () =
  let declared =
    List.concat_map
      (fun g ->
        List.map
          (fun c ->
            let kind, slack =
              match c.Gate.bound with
              | Gate.Floor { slack; _ } -> ("floor", slack)
              | Gate.Ceiling _ -> ("ceiling", false)
            in
            (Printf.sprintf "%s.%s %s slack=%b" g.Gate.group c.Gate.name kind slack,
             Gate.limits c.Gate.bound))
          g.Gate.checks)
      Gate.groups
  in
  Alcotest.(check (list (pair string (list (pair int (float 0.))))))
    "limits by size"
    [ ("view.speedup floor slack=true", [ (10, 10.); (0, 3.) ]);
      ("serve.speedup floor slack=true", [ (64, 5.); (8, 2.); (0, 1.) ]);
      ("wal.overhead ceiling slack=false", [ (0, 2.) ]);
      ("wal.amplification floor slack=true", [ (100_000, 1000.); (10_000, 100.); (0, 10.) ]);
      ("shard.storage floor slack=true", [ (0, 2.) ]);
      ("shard.scaling floor slack=false", [ (2, 1.2) ]);
      ("mqo.fanout floor slack=true", [ (64, 1.5); (0, 0.5) ]);
      ("daemon.amortization floor slack=true", [ (0, 0.5) ]);
      ("checkpoint.bytes_per_token ceiling slack=false", [ (0, 100.) ]) ]
    declared

let test_committed_pass () =
  match run ~baseline:committed committed with
  | Ok () -> ()
  | Error f -> Alcotest.failf "committed files rejected: %s: %s" f.Gate.check f.Gate.reason

let () =
  Alcotest.run "gate"
    [ ( "committed",
        [ Alcotest.test_case "committed BENCH files pass" `Quick test_committed_pass;
          Alcotest.test_case "declared limits" `Quick test_declared_limits;
          Alcotest.test_case "ungated BENCH_rogue.json" `Quick
            (rejects ~check:"ungated" ~extra:[ "BENCH_rogue.json" ] committed) ] );
      ( "seeded",
        List.concat_map
          (fun g ->
            bool_cases g
            @ List.concat_map (fun c -> limit_cases g c @ slack_cases g c) g.Gate.checks)
          Gate.groups ) ]
