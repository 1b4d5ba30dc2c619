let mean xs =
  let n = Array.length xs in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. xs /. float_of_int n

let variance xs =
  let n = Array.length xs in
  if n < 2 then 0.
  else begin
    let m = mean xs in
    Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.)) 0. xs /. float_of_int (n - 1)
  end

let autocorrelation xs k =
  let n = Array.length xs in
  if k >= n || n < 2 then 0.
  else begin
    let m = mean xs in
    let denom = Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.)) 0. xs in
    if Float.equal denom 0. then 0.
    else begin
      let num = ref 0. in
      for i = 0 to n - k - 1 do
        num := !num +. ((xs.(i) -. m) *. (xs.(i + k) -. m))
      done;
      !num /. denom
    end
  end

let effective_sample_size xs =
  let n = Array.length xs in
  if n < 2 then float_of_int n
  else begin
    let rec sum k acc =
      if k >= n then acc
      else
        let rho = autocorrelation xs k in
        if rho <= 0. then acc else sum (k + 1) (acc +. rho)
    in
    let tau = 1. +. (2. *. sum 1 0.) in
    float_of_int n /. tau
  end

let gelman_rubin chains =
  match chains with
  | [] | [ _ ] -> nan
  | _ ->
    let m = float_of_int (List.length chains) in
    let n = float_of_int (Array.length (List.hd chains)) in
    if n < 2. then nan
    else begin
      let means = List.map mean chains in
      let grand = List.fold_left ( +. ) 0. means /. m in
      let b = n /. (m -. 1.) *. List.fold_left (fun acc mu -> acc +. ((mu -. grand) ** 2.)) 0. means in
      let w = List.fold_left (fun acc c -> acc +. variance c) 0. chains /. m in
      if Float.equal w 0. then nan
      else sqrt ((((n -. 1.) /. n *. w) +. (b /. n)) /. w)
    end
