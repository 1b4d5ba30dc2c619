type model = {
  length : int;
  labels : int;
  node : int -> int -> float;
  edge : int -> int -> int -> float;
}

(* Forward messages α and backward messages β in log space.
   α.(i).(l) = log Σ over prefixes ending with label l at i;
   β.(i).(l) = log Σ over suffixes starting with label l at i. *)
let forward m =
  let a = Array.make_matrix m.length m.labels 0. in
  for l = 0 to m.labels - 1 do
    a.(0).(l) <- m.node 0 l
  done;
  for i = 1 to m.length - 1 do
    for l = 0 to m.labels - 1 do
      let incoming =
        Array.init m.labels (fun l' -> a.(i - 1).(l') +. m.edge (i - 1) l' l)
      in
      a.(i).(l) <- Logspace.log_sum_exp incoming +. m.node i l
    done
  done;
  a

let backward m =
  let b = Array.make_matrix m.length m.labels 0. in
  for i = m.length - 2 downto 0 do
    for l = 0 to m.labels - 1 do
      let outgoing =
        Array.init m.labels (fun l' -> m.edge i l l' +. m.node (i + 1) l' +. b.(i + 1).(l'))
      in
      b.(i).(l) <- Logspace.log_sum_exp outgoing
    done
  done;
  b

let log_partition m =
  if m.length = 0 then 0.
  else Logspace.log_sum_exp (forward m).(m.length - 1)

let marginals m =
  if m.length = 0 then [||]
  else begin
    let a = forward m and b = backward m in
    Array.init m.length (fun i ->
        Logspace.normalize_log (Array.init m.labels (fun l -> a.(i).(l) +. b.(i).(l))))
  end

let pairwise_marginals m i =
  if i < 0 || i >= m.length - 1 then invalid_arg "Chain_fb.pairwise_marginals";
  let a = forward m and b = backward m in
  let joint =
    Array.init m.labels (fun l ->
        Array.init m.labels (fun l' ->
            a.(i).(l) +. m.edge i l l' +. m.node (i + 1) l' +. b.(i + 1).(l')))
  in
  let z = Logspace.log_sum_exp (Array.concat (Array.to_list joint)) in
  Array.map (fun row -> Array.map (fun x -> exp (x -. z)) row) joint

let sample m rand =
  if m.length = 0 then [||]
  else begin
    let a = forward m in
    let path = Array.make m.length 0 in
    let draw logits =
      let probs = Logspace.normalize_log logits in
      let u = Prng.float rand 1. in
      let rec pick i acc =
        if i = Array.length probs - 1 then i
        else if u < acc +. probs.(i) then i
        else pick (i + 1) (acc +. probs.(i))
      in
      pick 0 0.
    in
    path.(m.length - 1) <- draw a.(m.length - 1);
    (* Backward: P(x_i | x_{i+1}, evidence) ∝ α_i(x) · edge(x, x_{i+1}) *)
    for i = m.length - 2 downto 0 do
      let next = path.(i + 1) in
      path.(i) <- draw (Array.init m.labels (fun l -> a.(i).(l) +. m.edge i l next))
    done;
    path
  end
