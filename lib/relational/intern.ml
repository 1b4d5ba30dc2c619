(* Global string-interning pool. See intern.mli for the contract.

   Writers (intern on a miss) serialise on [mu] and publish a new pool
   record through [published]; readers (resolve/value) do one Atomic.get
   and index the arrays. Slots [0 .. len-1] of a published pool are
   immutable: a writer with spare capacity fills slot [len] *before*
   publishing [len+1], and OCaml's memory model makes the slot write
   visible to any reader that observes the larger [len] through the
   atomic. Distinct array cells are distinct memory locations, so a
   writer filling slot [len] never races a reader of slots [< len]. *)

type pool = {
  strs : string array;
  vals : Value.t array;  (* vals.(i) == Value.Text strs.(i), shared *)
  len : int;
}

let empty_pool = { strs = [||]; vals = [||]; len = 0 }
let published : pool Atomic.t = Atomic.make empty_pool
let mu = Mutex.create ()

(* id table, guarded by [mu]. *)
let tbl : int Str_tbl.t = Str_tbl.create 1024
let m_interned = Obs.Metrics.gauge "storage.interned_strings"

let find_opt s =
  Mutex.lock mu;
  let r = Str_tbl.find_opt tbl s in
  Mutex.unlock mu;
  r

let intern s =
  Mutex.lock mu;
  match Str_tbl.find_opt tbl s with
  | Some id ->
    Mutex.unlock mu;
    id
  | None ->
    let p = Atomic.get published in
    let id = p.len in
    let p' =
      if id < Array.length p.strs then begin
        (* Spare capacity: fill the slot in place, then publish the
           longer length. Readers cannot see the slot until they see the
           new [len]. *)
        p.strs.(id) <- s;
        p.vals.(id) <- Value.Text s;
        { p with len = id + 1 }
      end
      else begin
        let cap = max 64 (2 * Array.length p.strs) in
        let strs = Array.make cap "" in
        let vals = Array.make cap Value.Null in
        Array.blit p.strs 0 strs 0 id;
        Array.blit p.vals 0 vals 0 id;
        strs.(id) <- s;
        vals.(id) <- Value.Text s;
        { strs; vals; len = id + 1 }
      end
    in
    Str_tbl.replace tbl s id;
    Atomic.set published p';
    if Obs.Metrics.enabled () then
      Obs.Metrics.set_gauge m_interned (float_of_int (id + 1));
    Mutex.unlock mu;
    id

(* Reads: if a stale snapshot does not yet cover [id] (the id travelled
   between domains faster than the publish), retake it under the mutex,
   which synchronises with the interning writer's unlock. *)
let snapshot_covering id =
  let p = Atomic.get published in
  if id < p.len then p
  else begin
    Mutex.lock mu;
    let p = Atomic.get published in
    Mutex.unlock mu;
    if id >= 0 && id < p.len then p
    else invalid_arg (Printf.sprintf "Intern.resolve: unknown id %d" id)
  end

let resolve id =
  if id < 0 then invalid_arg (Printf.sprintf "Intern.resolve: unknown id %d" id);
  (snapshot_covering id).strs.(id)

let value id =
  if id < 0 then invalid_arg (Printf.sprintf "Intern.resolve: unknown id %d" id);
  (snapshot_covering id).vals.(id)
