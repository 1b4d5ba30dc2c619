let max_domains = max 1 (Domain.recommended_domain_count () - 1)

exception Job_failed of { index : int; attempts : int; exn : exn }

(* Observability: each worker accumulates locally and folds its totals into
   the shared (atomic) counters when it finishes, so the global values are
   exactly the sum of per-domain contributions once every domain is joined.
   Per-job latencies go straight to the histogram (bucket updates are
   atomic, so cross-domain interleaving cannot tear them). *)
let m_jobs = Obs.Metrics.counter "parallel.jobs"
let m_domains = Obs.Metrics.counter "parallel.domains"
let m_job_ns = Obs.Metrics.histogram "parallel.job_ns"
let m_retries = Obs.Metrics.counter "parallel.retries"

let map ?(retries = 0) ?(backoff_s = 0.) ?on_retry ~n f =
  let results = Array.make n None in
  let next = Atomic.make 0 in
  (* First failure wins; once set, workers stop claiming jobs so sibling
     domains don't burn through the rest of the queue. *)
  let failure = Atomic.make None in
  let obs = Obs.Metrics.enabled () in
  let call i =
    if obs then begin
      let t0 = Obs.Timer.now_ns () in
      let x = f i in
      Obs.Metrics.observe m_job_ns (Obs.Timer.now_ns () - t0);
      x
    end
    else f i
  in
  (* A job is retried in place, on the domain that claimed it, so resume
     state a retry reads (e.g. a checkpoint the failed attempt wrote) is
     never raced by a sibling. [attempt] counts completed failures; the
     exponential backoff doubles from [backoff_s] on each one. A job still
     failing after [retries] retries is poison: its last exception is
     surfaced as {!Job_failed} with the full attempt count, which is how a
     supervisor tells a deterministic fault from a transient one. *)
  let run_job i =
    let rec attempt k =
      match call i with
      | x -> results.(i) <- Some x
      (* pdb_lint: allow R4 — captured into [failure], re-raised as Job_failed after the join *)
      | exception e ->
        if k >= retries then
          ignore (Atomic.compare_and_set failure None (Some (i, k + 1, e)) : bool)
        else begin
          Obs.Metrics.incr m_retries;
          (match on_retry with
          | Some g -> g ~index:i ~attempt:(k + 1) e
          | None -> ());
          if backoff_s > 0. then Unix.sleepf (backoff_s *. (2. ** float_of_int k));
          attempt (k + 1)
        end
    in
    attempt 0
  in
  let stopped () = match Atomic.get failure with Some _ -> true | None -> false in
  let worker () =
    let local_jobs = ref 0 in
    let rec loop () =
      if not (stopped ()) then begin
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          run_job i;
          incr local_jobs;
          loop ()
        end
      end
    in
    loop ();
    (* Merge-on-join: this domain's share of the work. *)
    if obs then Obs.Metrics.add m_jobs !local_jobs
  in
  let n_workers = min n max_domains in
  if n_workers <= 1 then begin
    let i = ref 0 in
    while !i < n && not (stopped ()) do
      run_job !i;
      incr i
    done;
    if obs then Obs.Metrics.add m_jobs !i
  end
  else begin
    if obs then Obs.Metrics.add m_domains n_workers;
    if Obs.Trace.enabled () then
      Obs.Trace.emit ~args:[ ("domains", string_of_int n_workers); ("jobs", string_of_int n) ]
        "parallel.spawn";
    let domains = List.init n_workers (fun _ -> Domain.spawn worker) in
    List.iter Domain.join domains;
    if Obs.Trace.enabled () then Obs.Trace.emit "parallel.join"
  end;
  (match Atomic.get failure with
  | Some (index, attempts, exn) -> raise (Job_failed { index; attempts; exn })
  | None -> ());
  Array.to_list (Array.map Option.get results)
