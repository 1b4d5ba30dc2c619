(* Single-process accept/select serving loop over one Registry chain.
   See the .mli for the protocol/admission/backpressure/scheduling
   contracts; docs/SERVER.md is the normative wire spec.

   Structure of one tick: poll readiness (select is used only as a
   sleep/wakeup — every fd is non-blocking, so accept and per-client
   reads are simply attempted each tick and EWOULDBLOCK means "nothing
   there"), accept new connections, drain and answer client frames,
   walk one sample if sampling is active, journal it, emit due stream
   updates, and flush whatever each socket will take without blocking. *)

module IT = Hashtbl.Make (Int)

let m_clients = Obs.Metrics.gauge "daemon.clients"
let m_rejected = Obs.Metrics.counter "daemon.rejected"
let m_coalesced = Obs.Metrics.counter "daemon.coalesced_updates"
let m_thinned = Obs.Metrics.counter "daemon.sched_thinned"
let m_update_encodes = Obs.Metrics.counter "daemon.update_encodes"

type config = {
  socket_path : string;
  max_clients : int;
  max_plans : int;
  max_bootstraps_per_tick : int;
  thin : int;
  max_samples : int;
  await_queries : int;
  slow_client_bytes : int;
  sndbuf_bytes : int;
}

let default_config ~socket_path =
  {
    socket_path;
    max_clients = 64;
    max_plans = 256;
    max_bootstraps_per_tick = 8;
    thin = 2;
    max_samples = 0;
    await_queries = 0;
    slow_client_bytes = 64 * 1024;
    sndbuf_bytes = 0;
  }

(* One stream subscription: [every >= 1] is a fixed cadence, [every = 0]
   asks the scheduler each sample. [pending] is the drop-oldest latch a
   slow client's updates coalesce into. *)
type sub = { every : int; mutable last_emit : int; mutable pending : string option }

type client = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;
  outbuf : Buffer.t;  (* unsent output only: written bytes are dropped *)
  subs : sub IT.t;  (* keyed by wire query id *)
  mutable closing : bool;  (* farewell frame queued; drop once flushed *)
  mutable alive : bool;
}

type t = {
  cfg : config;
  reg : Registry.t;
  durable : Durable.t option;
  sched : Scheduler.t;
  listen_fd : Unix.file_descr;
  mutable clients : client list;
  mutable started : bool;  (* sampling latch: set once await_queries is met *)
  mutable shutdown : bool;
  mutable rejected : int;
  mutable coalesced : int;
  mutable thinned : int;
  mutable bootstraps_this_tick : int;
}

let samples t = Registry.samples t.reg
let rejected t = t.rejected
let coalesced t = t.coalesced
let thinned t = t.thinned

let record_clients t =
  if Obs.Metrics.enabled () then
    Obs.Metrics.set_gauge m_clients (float_of_int (List.length t.clients))

let sampling_active t =
  (not t.shutdown) && t.started
  && (t.cfg.max_samples = 0 || Registry.samples t.reg < t.cfg.max_samples)

(* ---------- construction ---------- *)

let listen_socket path =
  if Sys.file_exists path then Sys.remove path;
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind fd (Unix.ADDR_UNIX path);
     Unix.listen fd 64;
     Unix.set_nonblock fd
   with Unix.Unix_error _ as e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd

let make ?scheduler cfg reg durable =
  if cfg.thin < 1 then invalid_arg "Daemon: thin must be >= 1";
  if cfg.max_clients < 1 then invalid_arg "Daemon: max_clients must be >= 1";
  (* A peer closing mid-write must surface as EPIPE, not kill the
     process. *)
  ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
  let sched =
    match scheduler with Some s -> s | None -> Scheduler.create ()
  in
  (* Queries already present (fresh registration before [start], or a
     snapshot/WAL resume) join the scheduler now. *)
  List.iter
    (fun (qid, _) -> Scheduler.track sched qid)
    (Registry.queries reg);
  {
    cfg;
    reg;
    durable;
    sched;
    listen_fd = listen_socket cfg.socket_path;
    clients = [];
    started = Registry.query_count reg >= cfg.await_queries;
    shutdown = false;
    rejected = 0;
    coalesced = 0;
    thinned = 0;
    bootstraps_this_tick = 0;
  }

let of_registry ?scheduler cfg reg = make ?scheduler cfg reg None
let of_durable ?scheduler cfg d = make ?scheduler cfg (Durable.registry d) (Some d)

(* ---------- output ---------- *)

let unflushed c = Buffer.length c.outbuf

let enqueue c resp =
  Buffer.add_string c.outbuf (Protocol.encode_response resp);
  Buffer.add_char c.outbuf '\n'

let reject t c code msg =
  t.rejected <- t.rejected + 1;
  Obs.Metrics.incr m_rejected;
  enqueue c (Protocol.Error { code; msg })

(* Subscriptions in ascending wire-id order. [c.subs] is a Hashtbl, and its
   iteration order depends on insertion history — a daemon that restores from
   a checkpoint re-registers queries in a different order than the original
   process and would otherwise emit frames in a different interleaving,
   diverging from the twin it must stay byte-identical with (R8:
   deterministic-serialization). *)
let subs_in_order c =
  IT.fold (fun wire_id sub acc -> (wire_id, sub) :: acc) c.subs []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let drop_client t c =
  if c.alive then begin
    c.alive <- false;
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    t.clients <- List.filter (fun c' -> c'.alive) t.clients;
    record_clients t
  end

(* Write as much buffered output as the socket takes right now. When the
   buffer drains, promote at most one pending (coalesced) update per
   subscription and push again — so a recovering client gets the newest
   update per query first, not a replay of stale ones. A partial write
   keeps only the unsent tail, so each attempt copies at most the
   backlog (bounded by coalescing), never the bytes already sent. *)
let flush_client t c =
  let write_once () =
    let len = unflushed c in
    if len = 0 then true
    else
      let pending = Buffer.contents c.outbuf in
      match Unix.write_substring c.fd pending 0 len with
      | n ->
          Buffer.clear c.outbuf;
          if n < len then Buffer.add_substring c.outbuf pending n (len - n);
          n > 0
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
          false
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _)
        ->
          drop_client t c;
          false
  in
  let rec pump promoted =
    if c.alive && write_once () then
      if Buffer.length c.outbuf = 0 then
        if promoted then begin
          if c.closing then drop_client t c
        end
        else begin
          List.iter
            (fun (_, sub) ->
              match sub.pending with
              | Some frame ->
                  sub.pending <- None;
                  Buffer.add_string c.outbuf frame;
                  Buffer.add_char c.outbuf '\n'
              | None -> ())
            (subs_in_order c);
          if Buffer.length c.outbuf > 0 then pump true
          else if c.closing then drop_client t c
        end
      else pump promoted
  in
  pump false

(* ---------- requests ---------- *)

let unknown_query c query =
  enqueue c
    (Protocol.Error { code = Protocol.Unknown_query; msg = Printf.sprintf "no query %d" query })

let find_by_name t name =
  List.find_opt (fun (_, n) -> String.equal n name) (Registry.queries t.reg)

let labelled est = List.map (fun (row, p) -> (Relational.Row.to_string row, p)) est
let estimates_of m = labelled (Core.Marginals.estimates m)

let registered_reply t qid name =
  Protocol.Registered
    {
      query = qid;
      name;
      samples = Core.Marginals.samples (Registry.marginals t.reg qid);
    }

let handle_register t c ~sql ~name =
  match name with
  | Some n when Option.is_some (find_by_name t n) ->
      (* Reattach-by-name: registering an existing name returns the
         standing query instead of duplicating the plan — this is how
         clients find their queries again after a daemon resume. *)
      let qid, _ = Option.get (find_by_name t n) in
      enqueue c (registered_reply t qid n)
  | _ ->
      if Registry.query_count t.reg >= t.cfg.max_plans then
        reject t c Protocol.Admission_plans
          (Printf.sprintf "plan limit %d reached" t.cfg.max_plans)
      else if t.bootstraps_this_tick >= t.cfg.max_bootstraps_per_tick then
        reject t c Protocol.Admission_bootstrap
          (Printf.sprintf "bootstrap budget %d exhausted this tick; retry"
             t.cfg.max_bootstraps_per_tick)
      else begin
        match Registry.register_sql ?name t.reg sql with
        | qid ->
            t.bootstraps_this_tick <- t.bootstraps_this_tick + 1;
            Scheduler.track t.sched qid;
            let n = Option.value (Registry.query_name t.reg qid) ~default:sql in
            enqueue c (registered_reply t qid n)
        | exception Relational.Sql.Parse_error msg ->
            enqueue c (Protocol.Error { code = Protocol.Sql; msg })
      end

let handle_request t c (req : Protocol.request) =
  match req with
  | Register { sql; name } -> handle_register t c ~sql ~name
  | Stream { query; every } -> (
      match Registry.query_name t.reg query with
      | None -> unknown_query c query
      | Some _ ->
          let every = max 0 every in
          IT.replace c.subs query
            { every; last_emit = Registry.samples t.reg; pending = None };
          enqueue c (Protocol.Streaming { query; every }))
  | Detach { query } -> (
      match Registry.query_name t.reg query with
      | None -> unknown_query c query
      | Some name ->
          let m = Registry.unregister t.reg query in
          Scheduler.untrack t.sched query;
          List.iter (fun c' -> IT.remove c'.subs query) t.clients;
          enqueue c
            (Protocol.Detached
               {
                 query;
                 name;
                 samples = Core.Marginals.samples m;
                 estimates = estimates_of m;
               }))
  | Marginals { query } -> (
      match Registry.query_name t.reg query with
      | None -> unknown_query c query
      | Some name ->
          let m = Registry.marginals t.reg query in
          enqueue c
            (Protocol.Marginals_reply
               {
                 query;
                 name;
                 samples = Core.Marginals.samples m;
                 estimates = estimates_of m;
               }))
  | List_queries ->
      enqueue c
        (Protocol.Queries_reply (Registry.queries t.reg))
  | Stats ->
      enqueue c
        (Protocol.Stats_reply
           {
             clients = List.length t.clients;
             queries = Registry.query_count t.reg;
             samples = Registry.samples t.reg;
             max_samples = t.cfg.max_samples;
             rejected = t.rejected;
             coalesced = t.coalesced;
             thinned = t.thinned;
           })
  | Shutdown ->
      t.shutdown <- true;
      enqueue c Protocol.Bye;
      c.closing <- true

let handle_line t c line =
  match Protocol.decode_request line with
  | Result.Ok req -> handle_request t c req
  | Result.Error (code, msg) -> enqueue c (Protocol.Error { code; msg })

(* ---------- input ---------- *)

let process_lines t c =
  let s = Buffer.contents c.inbuf in
  let n = String.length s in
  let rec go pos =
    if pos >= n || not c.alive || c.closing then pos
    else
      match String.index_from_opt s pos '\n' with
      | None -> pos
      | Some nl ->
          handle_line t c (String.sub s pos (nl - pos));
          go (nl + 1)
  in
  let consumed = go 0 in
  if consumed > 0 then begin
    Buffer.clear c.inbuf;
    Buffer.add_substring c.inbuf s consumed (n - consumed)
  end

let read_client t c =
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read c.fd chunk 0 (Bytes.length chunk) with
    | 0 -> drop_client t c
    | n ->
        Buffer.add_subbytes c.inbuf chunk 0 n;
        go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF), _, _)
      ->
        drop_client t c
  in
  go ();
  if c.alive then process_lines t c

let accept_clients t =
  let rec go () =
    match Unix.accept ~cloexec:true t.listen_fd with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
    | fd, _ ->
        Unix.set_nonblock fd;
        if t.cfg.sndbuf_bytes > 0 then
          (try Unix.setsockopt_int fd Unix.SO_SNDBUF t.cfg.sndbuf_bytes
           with Unix.Unix_error _ -> ());
        let c =
          {
            fd;
            inbuf = Buffer.create 256;
            outbuf = Buffer.create 256;
            subs = IT.create 4;
            closing = false;
            alive = true;
          }
        in
        if List.length t.clients >= t.cfg.max_clients then begin
          t.rejected <- t.rejected + 1;
          Obs.Metrics.incr m_rejected;
          enqueue c
            (Protocol.Error
               {
                 code = Protocol.Admission_clients;
                 msg = Printf.sprintf "client limit %d reached" t.cfg.max_clients;
               });
          c.closing <- true;
          flush_client t c;
          if c.alive then drop_client t c
        end
        else begin
          t.clients <- c :: t.clients;
          record_clients t
        end;
        go ()
  in
  go ()

(* ---------- sampling + updates ---------- *)

let deliver_update t c sub frame =
  if unflushed c > t.cfg.slow_client_bytes || Option.is_some sub.pending then begin
    (* Slow reader: coalesce drop-oldest into the one-slot latch. While an
       older frame is latched, a newer one must not overtake it in
       [outbuf]: [flush_client] promotes the latch only once the buffer
       drains, which would deliver the older sample last. *)
    (match sub.pending with
    | Some _ ->
        t.coalesced <- t.coalesced + 1;
        Obs.Metrics.incr m_coalesced
    | None -> ());
    sub.pending <- Some frame
  end
  else begin
    Buffer.add_string c.outbuf frame;
    Buffer.add_char c.outbuf '\n'
  end

(* What one sample emits for one query, computed at most once however
   many connections subscribe to it: the sorted estimates (shared by the
   scheduler's summary and the update frame), the scheduler's cadence and
   the encoded [Update] frame, the latter two on first demand. *)
type emission = {
  est : (Relational.Row.t * float) list;
  mutable cad : int option;
  mutable frame : string option;
}

let cadence_of t wire_id e =
  match e.cad with
  | Some cad -> cad
  | None ->
      let cad = Scheduler.cadence t.sched wire_id in
      e.cad <- Some cad;
      cad

let frame_of wire_id sample e =
  match e.frame with
  | Some frame -> frame
  | None ->
      Obs.Metrics.incr m_update_encodes;
      let frame =
        Protocol.encode_response
          (Protocol.Update { query = wire_id; sample; estimates = labelled e.est })
      in
      e.frame <- Some frame;
      frame

let emit_updates t sample emissions =
  List.iter
    (fun c ->
      if c.alive && not c.closing then
        List.iter
          (fun (wire_id, sub) ->
            match IT.find_opt emissions wire_id with
            | None -> ()
            | Some e ->
                let cad = if sub.every >= 1 then sub.every else cadence_of t wire_id e in
                if sample - sub.last_emit >= cad then begin
                  sub.last_emit <- sample;
                  deliver_update t c sub (frame_of wire_id sample e)
                end
                else if sub.every = 0 && cad > 1 then begin
                  t.thinned <- t.thinned + 1;
                  Obs.Metrics.incr m_thinned
                end)
          (subs_in_order c))
    t.clients

let step_once t =
  Registry.step t.reg ~thin:t.cfg.thin;
  let sample = Registry.samples t.reg in
  let emissions = IT.create 16 in
  List.iter
    (fun (qid, _) ->
      let est = Core.Marginals.estimates (Registry.marginals t.reg qid) in
      Scheduler.observe t.sched qid (List.fold_left (fun acc (_, p) -> acc +. p) 0. est);
      IT.replace emissions qid { est; cad = None; frame = None })
    (Registry.queries t.reg);
  emit_updates t sample emissions

(* ---------- loop ---------- *)

let tick t ~timeout =
  t.bootstraps_this_tick <- 0;
  if (not t.started) && Registry.query_count t.reg >= t.cfg.await_queries then
    t.started <- true;
  (* select is purely a sleep/wakeup: every fd below is non-blocking, so
     the actual readiness test is the EWOULDBLOCK each attempt handles.
     This sidesteps any need to compare file descriptors. *)
  let readers = t.listen_fd :: List.map (fun c -> c.fd) t.clients in
  let writers =
    List.filter_map
      (fun c -> if unflushed c > 0 then Some c.fd else None)
      t.clients
  in
  (try ignore (Unix.select readers writers [] timeout)
   with Unix.Unix_error ((Unix.EINTR | Unix.EBADF), _, _) -> ());
  accept_clients t;
  List.iter (fun c -> if c.alive then read_client t c) t.clients;
  if (not t.started) && Registry.query_count t.reg >= t.cfg.await_queries then
    t.started <- true;
  if sampling_active t then step_once t;
  List.iter (fun c -> if c.alive then flush_client t c) t.clients

let close t =
  List.iter
    (fun c ->
      c.alive <- false;
      try Unix.close c.fd with Unix.Unix_error _ -> ())
    t.clients;
  t.clients <- [];
  record_clients t;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  if Sys.file_exists t.cfg.socket_path then
    try Sys.remove t.cfg.socket_path with Sys_error _ -> ()

let run t =
  while not t.shutdown do
    let timeout = if sampling_active t then 0. else 0.05 in
    tick t ~timeout
  done;
  (* Best-effort farewell flush (Bye and any tail updates), then release
     sockets and make the journal directory clean for the next resume. *)
  List.iter (fun c -> if c.alive then flush_client t c) t.clients;
  close t;
  match t.durable with Some d -> Durable.close d | None -> ()
