(* Measurement plumbing shared by the workloads.

   Clocks go through [Obs.Timer] (lint R2). Numbers the bench derives
   itself live in its own records and span list; the only [Obs] metrics
   it reads are the ones the library layers already register, looked up
   by name with [Obs.Metrics.find], so the catalogue gains no names
   (lint R6). *)

let now = Obs.Timer.now_ns
let to_s ns = float_of_int ns /. 1e9
let to_ms ns = float_of_int ns /. 1e6

let timed f =
  let t0 = now () in
  let x = f () in
  (x, now () - t0)

(* ---------- samples and order statistics ---------- *)

(* A growable int buffer: per-sample latencies in ns. *)
type vec = { mutable data : int array; mutable len : int }

let vec () = { data = Array.make 1024 0; len = 0 }

let push v x =
  if v.len = Array.length v.data then begin
    let d = Array.make (2 * v.len) 0 in
    Array.blit v.data 0 d 0 v.len;
    v.data <- d
  end;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let floats v = Array.init v.len (fun i -> float_of_int v.data.(i))
let sum v = Array.fold_left ( + ) 0 (Array.sub v.data 0 v.len)

(* Linear interpolation between closest ranks, [p] in [0, 1]; 0 for no
   data, so a metric never reads as NaN. *)
let percentile p xs =
  let n = Array.length xs in
  if n = 0 then 0.
  else begin
    let a = Array.copy xs in
    Array.sort Float.compare a;
    let h = p *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (lo + 1) (n - 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))
  end

let median xs = percentile 0.5 xs
let median_ns l = median (Array.of_list (List.map float_of_int l))
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* ---------- library counters (read-only, by name) ---------- *)

let counter name =
  match Obs.Metrics.find Obs.Metrics.global name with
  | Some (Obs.Metrics.Counter n) -> n
  | _ -> 0

(* (count, sum, max) of a histogram; zeros when it was never touched. *)
let hist name =
  match Obs.Metrics.find Obs.Metrics.global name with
  | Some (Obs.Metrics.Histogram { count; sum; max; _ }) -> (count, sum, max)
  | _ -> (0, 0, 0)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* ---------- spans ---------- *)

(* Spans are recorded only in the traced pass and kept in memory until
   the run ends: name, start, end, and the enclosing span (-1 for none). *)
type span = { id : int; parent : int; name : string; start_ns : int; stop_ns : int }

let tracing = ref false
let spans : span list ref = ref []
let next_id = ref 0
let current = ref (-1)

let reset_spans () =
  spans := [];
  next_id := 0;
  current := -1

(* A span from timestamps taken elsewhere, under the innermost open span
   or, with [under], under the latest closed span of that name. *)
let add_span ?under name ~start ~stop =
  if !tracing then begin
    let parent =
      match under with
      | None -> !current
      | Some u -> (
        match List.find_opt (fun s -> String.equal s.name u) !spans with
        | Some s -> s.id
        | None -> !current)
    in
    spans := { id = !next_id; parent; name; start_ns = start; stop_ns = stop } :: !spans;
    incr next_id
  end

(* [span name f] runs [f] as a child of the innermost open span. *)
let span name f =
  if not !tracing then f ()
  else begin
    let id = !next_id and parent = !current in
    incr next_id;
    current := id;
    let start = now () in
    let close () =
      current := parent;
      spans := { id; parent; name; start_ns = start; stop_ns = now () } :: !spans
    in
    match f () with
    | x ->
      close ();
      x
    | exception e ->
      close ();
      raise e
  end

let duration s = s.stop_ns - s.start_ns
let total name =
  List.fold_left (fun acc s -> if String.equal s.name name then acc + duration s else acc) 0 !spans

(* Share of the root spans named [root] that no leaf span covers: time
   the trace cannot attribute to any named layer. *)
let unattributed_share root =
  let parents = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace parents s.parent ()) !spans;
  let roots, leaves =
    List.fold_left
      (fun (roots, leaves) s ->
        if String.equal s.name root then (roots + duration s, leaves)
        else if Hashtbl.mem parents s.id then (roots, leaves)
        else (roots, leaves + duration s))
      (0, 0) !spans
  in
  ratio (roots - leaves) roots

let write_spans path =
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc
        (Obs.Jsonx.obj
           [ ("id", Obs.Jsonx.int s.id); ("parent", Obs.Jsonx.int s.parent);
             ("name", Obs.Jsonx.str s.name); ("start_ns", Obs.Jsonx.int s.start_ns);
             ("end_ns", Obs.Jsonx.int s.stop_ns) ]);
      output_char oc '\n')
    (List.rev !spans);
  close_out oc

(* ---------- the chain probe ---------- *)

(* Wraps the proposal the bench builds its chain with. It counts
   proposals and stamps the start of every [thin]-th one — the sample
   boundaries of a walk the bench cannot see from outside (inside
   [Serve.Shard.evaluate]). With [timing] on (traced pass) it also
   times each accepted proposal's [commit] (the world write) and keeps
   the end of the last proposal, so a sample's walk time is
   [last_end - first_start]. The candidate and the generator draws are
   untouched, so the chain's path is the same with or without it. *)
type probe = {
  thin : int;
  timing : bool;
  mutable proposals : int;
  mutable commits : int;
  mutable commit_ns : int;
  mutable last_end : int;
  starts : vec;  (* start of each sample's first proposal *)
  walks : vec;  (* traced: walk time of each completed sample *)
}

let probe ~thin ~timing =
  { thin; timing; proposals = 0; commits = 0; commit_ns = 0; last_end = 0;
    starts = vec (); walks = vec () }

let wrap p (proposal : Core.World.t Mcmc.Proposal.t) : Core.World.t Mcmc.Proposal.t =
 fun rng world ->
  if p.proposals mod p.thin = 0 then begin
    let t = now () in
    if p.timing && p.starts.len > 0 then
      push p.walks (p.last_end - p.starts.data.(p.starts.len - 1));
    push p.starts t
  end;
  p.proposals <- p.proposals + 1;
  let c = proposal rng world in
  if not p.timing then c
  else begin
    p.last_end <- now ();
    { c with
      Mcmc.Proposal.commit =
        (fun () ->
          let t0 = now () in
          c.Mcmc.Proposal.commit ();
          let t1 = now () in
          p.commits <- p.commits + 1;
          p.commit_ns <- p.commit_ns + (t1 - t0);
          p.last_end <- t1) }
  end

(* Forget burn-in: the next proposal starts sample 1 of the timed phase. *)
let restart p =
  p.proposals <- 0;
  p.commits <- 0;
  p.commit_ns <- 0;
  p.starts.len <- 0;
  p.walks.len <- 0

(* Walk time of the last sample, once its chain has stopped. *)
let close_walks p =
  if p.timing && p.starts.len > p.walks.len then
    push p.walks (p.last_end - p.starts.data.(p.starts.len - 1))

(* ---------- answers ---------- *)

(* Bit-exact fingerprint of a list of answers — each a sample count and
   its (row, probability) estimates — with every probability's bit
   pattern. *)
let digest_estimates answers =
  let b = Buffer.create 4096 in
  List.iter
    (fun (samples, estimates) ->
      Buffer.add_string b (string_of_int samples);
      List.iter
        (fun (row, p) -> Buffer.add_string b (Printf.sprintf "%s=%Lx;" row (Int64.bits_of_float p)))
        estimates;
      Buffer.add_char b '\n')
    answers;
  Digest.to_hex (Digest.string (Buffer.contents b))

let digest marginals =
  digest_estimates
    (List.map
       (fun m ->
         ( Core.Marginals.samples m,
           List.map
             (fun (row, p) -> (Relational.Row.to_string row, p))
             (Core.Marginals.estimates m) ))
       marginals)
