type report = {
  marginals : Marginals.t;
  final_thin : int;
  thin_trajectory : (int * int) list;
  walk_s : float;
  query_s : float;
}

let evaluate ?(strategy = Evaluator.Materialized) ?(k_min = 50) ?(k_max = 50_000)
    ?(target_overhead = 0.25) ?(initial_thin = 1_000) pdb ~query ~samples =
  let walk_s = ref 0. and query_s = ref 0. in
  (* Spans come from Obs.Timer's never-decreasing clock: a backwards wall
     clock step can no longer produce negative walk_s/query_s and mis-tune
     the thinning controller below. *)
  let timed acc f =
    let t0 = Obs.Timer.start () in
    f ();
    let dt = Obs.Timer.seconds (Obs.Timer.elapsed_ns t0) in
    acc := !acc +. dt;
    dt
  in
  let run = Evaluator.start strategy pdb ~query in
  let thin = ref initial_thin in
  let trajectory = ref [ (0, !thin) ] in
  let window_walk = ref 0. and window_query = ref 0. and window_steps = ref 0 in
  for i = 1 to samples do
    window_walk := !window_walk +. timed walk_s (fun () -> Pdb.walk pdb ~steps:!thin);
    window_query := !window_query +. timed query_s (fun () -> Evaluator.observe run);
    window_steps := !window_steps + !thin;
    if i mod 10 = 0 && !window_steps > 0 then begin
      (* Per-step walk cost and per-sample query cost over the window. *)
      let walk_per_step = !window_walk /. float_of_int !window_steps in
      let query_per_sample = !window_query /. 10. in
      if walk_per_step > 0. then begin
        (* Choose k so query cost ≈ target_overhead × (k · walk cost):
           k* = query / (target · walk). Damp the update geometrically. *)
        let ideal = query_per_sample /. (target_overhead *. walk_per_step) in
        let damped =
          int_of_float (sqrt (float_of_int !thin *. max 1. ideal))
        in
        let next = max k_min (min k_max damped) in
        if next <> !thin then begin
          thin := next;
          trajectory := (i, next) :: !trajectory
        end
      end;
      window_walk := 0.;
      window_query := 0.;
      window_steps := 0
    end
  done;
  { marginals = Evaluator.marginals run; final_thin = !thin; thin_trajectory = List.rev !trajectory;
    walk_s = !walk_s; query_s = !query_s }
