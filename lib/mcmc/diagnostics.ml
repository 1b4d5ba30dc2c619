let mean xs =
  let n = Array.length xs in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. xs /. float_of_int n

(* Sum of squared deviations from [m]. The square stays [** 2.]: glibc's
   pow is not correctly rounded there and differs from [d *. d] in the
   last bit for about 1 value in 1200, which would move ESS, R̂ and so the
   daemon's update cadence. *)
let sq_dev xs m = Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.)) 0. xs

let variance xs =
  let n = Array.length xs in
  if n < 2 then 0. else sq_dev xs (mean xs) /. float_of_int (n - 1)

(* Lag-k autocorrelation given the mean and a non-zero [sq_dev] total. *)
let lag_corr xs m denom k =
  let num = ref 0. in
  for i = 0 to Array.length xs - k - 1 do
    num := !num +. ((xs.(i) -. m) *. (xs.(i + k) -. m))
  done;
  !num /. denom

let autocorrelation xs k =
  let n = Array.length xs in
  if k >= n || n < 2 then 0.
  else begin
    let m = mean xs in
    let denom = sq_dev xs m in
    if Float.equal denom 0. then 0. else lag_corr xs m denom k
  end

(* The mean and denominator are shared by every lag, so the sum costs
   one multiply pass per lag rather than two more passes and n pow calls. *)
let effective_sample_size xs =
  let n = Array.length xs in
  if n < 2 then float_of_int n
  else begin
    let m = mean xs in
    let denom = sq_dev xs m in
    let rec sum k acc =
      if k >= n || Float.equal denom 0. then acc
      else
        let rho = lag_corr xs m denom k in
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
