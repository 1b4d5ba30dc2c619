open Relational

type result = {
  ranking : (Row.t * float) list;
  samples_used : int;
  separated : bool;
}

let evaluate ?(z_score = 1.96) ?(min_samples = 20) ?(max_samples = 2000) pdb ~query ~k ~thin =
  let run = Evaluator.start Evaluator.Materialized pdb ~query in
  let marginals = Evaluator.marginals run in
  let separated = ref false in
  let samples = ref 0 in
  let check () =
    (* The ranking is stable when the k-th tuple's lower bound clears the
       (k+1)-th tuple's upper bound. Fewer than k+1 candidates: stable once
       the k-th lower bound clears 0 (no unseen tuple can rank higher than
       an interval that excludes 0... conservatively require all seen). *)
    let ranked = Confidence.top_k marginals (k + 1) in
    match List.filteri (fun i _ -> i >= k - 1) ranked with
    | [ (kth, _) ] ->
      let lo, _ = Confidence.wilson_interval ~z_score marginals kth in
      lo > 0.
    | [ (kth, _); (next, _) ] ->
      let lo, _ = Confidence.wilson_interval ~z_score marginals kth in
      let _, hi = Confidence.wilson_interval ~z_score marginals next in
      lo > hi
    | _ -> false
  in
  while (not !separated) && !samples < max_samples do
    Pdb.walk pdb ~steps:thin;
    Evaluator.observe run;
    incr samples;
    if !samples >= min_samples && !samples mod 10 = 0 then separated := check ()
  done;
  { ranking = Confidence.top_k marginals k; samples_used = !samples; separated = !separated }
