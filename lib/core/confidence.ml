let wilson_interval ?effective_samples ?(z_score = 1.96) m row =
  let n =
    float_of_int (match effective_samples with Some n -> max 1 n | None -> max 1 (Marginals.samples m))
  in
  let p = Marginals.probability m row in
  let z2 = z_score *. z_score in
  let denom = 1. +. (z2 /. n) in
  let center = (p +. (z2 /. (2. *. n))) /. denom in
  let spread = z_score *. sqrt ((p *. (1. -. p) /. n) +. (z2 /. (4. *. n *. n))) /. denom in
  (max 0. (center -. spread), min 1. (center +. spread))

let top_k m k =
  let all = Marginals.estimates m in
  let sorted =
    List.sort
      (fun (ra, pa) (rb, pb) ->
        match compare pb pa with 0 -> Relational.Row.compare ra rb | c -> c)
      all
  in
  List.filteri (fun i _ -> i < k) sorted
