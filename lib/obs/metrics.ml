let switch = Atomic.make false
let set_enabled b = Atomic.set switch b
let enabled () = Atomic.get switch

(* 62 value-carrying buckets (powers of two) plus bucket 0 for <= 0. *)
let n_buckets = 63

let bucket_index v =
  if v <= 0 then 0
  else begin
    let rec go b v = if v <= 1 then b else go (b + 1) (v lsr 1) in
    1 + go 0 v
  end

let bucket_bounds = function
  | 0 -> (min_int, 0)
  | k -> (1 lsl (k - 1), (1 lsl k) - 1)

type counter = { c : int Atomic.t }
type gauge = { g : float Atomic.t }

type histogram = {
  counts : int Atomic.t array; (* one cell per bucket *)
  h_n : int Atomic.t;
  h_sum : int Atomic.t;
  h_max : int Atomic.t;
}

type item = I_counter of counter | I_gauge of gauge | I_histogram of histogram

type t = { items : (string, item) Hashtbl.t; lock : Mutex.t }

let create () = { items = Hashtbl.create 32; lock = Mutex.create () }
let global = create ()

let item_kind = function
  | I_counter _ -> "counter"
  | I_gauge _ -> "gauge"
  | I_histogram _ -> "histogram"

(* Find-or-create under the registry lock; the lock is only taken at handle
   acquisition (module initialization, typically), never on the hot path. *)
let intern reg name ~kind ~make ~select =
  Mutex.lock reg.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock reg.lock)
    (fun () ->
      match Hashtbl.find_opt reg.items name with
      | Some item -> (
        match select item with
        | Some x -> x
        | None ->
          invalid_arg
            (Printf.sprintf "Obs.Metrics: %S is a %s, not a %s" name (item_kind item) kind))
      | None ->
        let x = make () in
        Hashtbl.replace reg.items name x;
        (match select x with Some v -> v | None -> assert false))

let counter ?(reg = global) name =
  intern reg name ~kind:"counter"
    ~make:(fun () -> I_counter { c = Atomic.make 0 })
    ~select:(function I_counter c -> Some c | _ -> None)

let incr c = if enabled () then ignore (Atomic.fetch_and_add c.c 1 : int)
let add c n = if enabled () then ignore (Atomic.fetch_and_add c.c n : int)

let gauge ?(reg = global) name =
  intern reg name ~kind:"gauge"
    ~make:(fun () -> I_gauge { g = Atomic.make 0. })
    ~select:(function I_gauge g -> Some g | _ -> None)

let set_gauge g x = if enabled () then Atomic.set g.g x

let histogram ?(reg = global) name =
  intern reg name ~kind:"histogram"
    ~make:(fun () ->
      I_histogram
        { counts = Array.init n_buckets (fun _ -> Atomic.make 0);
          h_n = Atomic.make 0;
          h_sum = Atomic.make 0;
          h_max = Atomic.make 0 })
    ~select:(function I_histogram h -> Some h | _ -> None)

let rec atomic_max cell v =
  let cur = Atomic.get cell in
  if v > cur && not (Atomic.compare_and_set cell cur v) then atomic_max cell v

let observe h v =
  if enabled () then begin
    ignore (Atomic.fetch_and_add h.counts.(bucket_index v) 1 : int);
    ignore (Atomic.fetch_and_add h.h_n 1 : int);
    ignore (Atomic.fetch_and_add h.h_sum v : int);
    atomic_max h.h_max v
  end

let hist_count h = Atomic.get h.h_n
let hist_sum h = Atomic.get h.h_sum
let hist_max h = Atomic.get h.h_max

let hist_mean h =
  let n = hist_count h in
  if n = 0 then 0. else float_of_int (hist_sum h) /. float_of_int n

let hist_buckets h =
  let out = ref [] in
  for k = n_buckets - 1 downto 0 do
    let c = Atomic.get h.counts.(k) in
    if c > 0 then
      let lo, hi = bucket_bounds k in
      out := (lo, hi, c) :: !out
  done;
  !out

let quantile h q =
  let n = hist_count h in
  if n = 0 then 0
  else begin
    let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
    let rec go k seen =
      if k >= n_buckets then hist_max h
      else begin
        let seen = seen + Atomic.get h.counts.(k) in
        if seen >= rank then snd (bucket_bounds k) else go (k + 1) seen
      end
    in
    go 0 0
  end


(* ------------------------------------------------------------------ *)

let reset reg =
  Mutex.lock reg.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock reg.lock)
    (fun () ->
      Hashtbl.iter
        (fun _ item ->
          match item with
          | I_counter c -> Atomic.set c.c 0
          | I_gauge g -> Atomic.set g.g 0.
          | I_histogram h ->
            Array.iter (fun cell -> Atomic.set cell 0) h.counts;
            Atomic.set h.h_n 0;
            Atomic.set h.h_sum 0;
            Atomic.set h.h_max 0)
        reg.items)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of {
      count : int;
      sum : int;
      max : int;
      buckets : (int * int * int) list;
    }

let value_of_item = function
  | I_counter c -> Counter (Atomic.get c.c)
  | I_gauge g -> Gauge (Atomic.get g.g)
  | I_histogram h ->
    Histogram
      { count = hist_count h; sum = hist_sum h; max = hist_max h; buckets = hist_buckets h }

let snapshot reg =
  let items =
    Mutex.lock reg.lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock reg.lock)
      (fun () -> Hashtbl.fold (fun name item acc -> (name, item) :: acc) reg.items [])
  in
  List.map (fun (name, item) -> (name, value_of_item item)) items
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let find reg name =
  Mutex.lock reg.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock reg.lock)
    (fun () -> Option.map value_of_item (Hashtbl.find_opt reg.items name))
