open Relational

(* Observability (docs/OBSERVABILITY.md): the per-record durability cost
   this module exists to minimize. "wal.append_ns" is the full append path
   (framing, buffering, and any group-commit flush it triggers);
   "wal.fsync_ns" isolates the flushes so the group-commit amortization is
   visible; "wal.append_bytes" accumulates framed bytes, the numerator of
   the bytes-per-sample claim the bench gate enforces. *)
let m_append_ns = Obs.Metrics.histogram "wal.append_ns"
let m_append_bytes = Obs.Metrics.counter "wal.append_bytes"
let m_fsync_ns = Obs.Metrics.histogram "wal.fsync_ns"

type delta = (string * (Row.t * int) list) list

type record =
  | Sample of {
      steps : int;
      proposed : int;
      accepted : int;
      rng : string;
      delta : delta;
    }
  | Register of { id : int; name : string; algebra : Algebra.t }
  | Unregister of { id : int }
  | Absorb of { delta : delta }

(* ---------- format constants ---------- *)

let magic = "PDBWAL"
let version = 1

let kind_tag = function
  | Sample _ -> 1
  | Register _ -> 2
  | Unregister _ -> 3
  | Absorb _ -> 4

let kind_tags = [ (1, "sample"); (2, "register"); (3, "unregister"); (4, "absorb") ]

(* ---------- record codec ---------- *)

let enc_delta b (d : delta) =
  Codec.W.list b
    (fun b (table, entries) ->
      Codec.W.string b table;
      Codec.W.list b Wire.enc_entry entries)
    d

let dec_delta r : delta =
  Codec.R.list r (fun r ->
      let table = Codec.R.string r in
      (table, Codec.R.list r Wire.dec_entry))

let encode_record rec_ =
  let b = Codec.W.create () in
  Codec.W.u8 b (kind_tag rec_);
  (match rec_ with
  | Sample { steps; proposed; accepted; rng; delta } ->
      Codec.W.uvarint b steps;
      Codec.W.uvarint b proposed;
      Codec.W.uvarint b accepted;
      Codec.W.string b rng;
      enc_delta b delta
  | Register { id; name; algebra } ->
      Codec.W.uvarint b id;
      Codec.W.string b name;
      Wire.enc_algebra b algebra
  | Unregister { id } -> Codec.W.uvarint b id
  | Absorb { delta } -> enc_delta b delta);
  Codec.W.contents b

let decode_record s =
  let r = Codec.R.of_string s in
  let rec_ =
    match Codec.R.u8 r with
    | 1 ->
        let steps = Codec.R.uvarint r in
        let proposed = Codec.R.uvarint r in
        let accepted = Codec.R.uvarint r in
        let rng = Codec.R.string r in
        Sample { steps; proposed; accepted; rng; delta = dec_delta r }
    | 2 ->
        let id = Codec.R.uvarint r in
        let name = Codec.R.string r in
        Register { id; name; algebra = Wire.dec_algebra r }
    | 3 -> Unregister { id = Codec.R.uvarint r }
    | 4 -> Absorb { delta = dec_delta r }
    | n -> raise (Codec.Corrupt (Printf.sprintf "bad WAL record kind %d" n))
  in
  if not (Codec.R.at_end r) then
    raise (Codec.Corrupt "trailing bytes after WAL record");
  rec_

(* ---------- framing ---------- *)

let crc_le crc =
  String.init 4 (fun i ->
      Char.chr (Int32.to_int (Int32.shift_right_logical crc (8 * i)) land 0xff))

(* frame = uvarint payload-length ∥ payload ∥ CRC-32 LE, CRC over the
   length bytes and payload — W.string spells exactly the first two
   fields. The trailing CRC is what makes a partially written frame
   detectable: the checksum arrives last, so no prefix of a frame can
   validate. *)
let frame_of_payload payload =
  let b = Codec.W.create () in
  Codec.W.string b payload;
  let body = Codec.W.contents b in
  body ^ crc_le (Codec.crc32 body)

let encode_frame rec_ = frame_of_payload (encode_record rec_)

let header ~base_samples =
  if base_samples < 0 then invalid_arg "Wal.header: negative base_samples";
  let b = Codec.W.create () in
  String.iter (fun c -> Codec.W.u8 b (Char.code c)) magic;
  Codec.W.u8 b version;
  Codec.W.uvarint b base_samples;
  let body = Codec.W.contents b in
  body ^ crc_le (Codec.crc32 body)

(* ---------- raw byte scanning (recovery must not trust lengths) ---------- *)

(* LEB128 uvarint directly off the file image; None when the bytes run out
   or the groups overflow a word — both mean "not a whole varint here". *)
let scan_uvarint s pos =
  let n = String.length s in
  let rec go pos shift acc =
    if pos >= n || shift > Sys.int_size then None
    else
      let c = Char.code s.[pos] in
      let acc = acc lor ((c land 0x7f) lsl shift) in
      if c land 0x80 = 0 then Some (acc, pos + 1) else go (pos + 1) (shift + 7) acc
  in
  go pos 0 0

let scan_crc s pos =
  let stored = ref 0l in
  for i = 0 to 3 do
    stored :=
      Int32.logor !stored
        (Int32.shift_left (Int32.of_int (Char.code s.[pos + i])) (8 * i))
  done;
  !stored

(* ---------- writer ---------- *)

type writer = {
  fd : Unix.file_descr;
  buf : Buffer.t;  (** frames appended since the last flush *)
  fsync_every : int;
  mutable pending : int;  (** records in [buf] *)
  mutable bytes : int;
  mutable appended : int;
  mutable closed : bool;
}

(* The writer uses a raw descriptor, not an out_channel, deliberately:
   stdlib channels flush their buffers from at_exit, so a writer abandoned
   after a simulated crash would resurrect its un-synced tail at process
   exit and corrupt the very file the recovery test just validated. An
   abandoned descriptor loses its buffer, which is exactly crash
   semantics. *)

let write_all fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write_substring fd s !off (len - !off)
  done

let fsync_dir path =
  match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
  | fd ->
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let mk_writer fd ~bytes ~fsync_every =
  { fd; buf = Buffer.create 1024; fsync_every; pending = 0; bytes; appended = 0; closed = false }

let create ~path ~base_samples ~fsync_every =
  if fsync_every < 0 then invalid_arg "Wal.create: negative fsync_every";
  let hdr = header ~base_samples in
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  (try
     write_all fd hdr;
     Unix.fsync fd;
     Unix.close fd
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path;
  fsync_dir path;
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644 in
  mk_writer fd ~bytes:(String.length hdr) ~fsync_every

let open_append ~path ~valid_bytes ~fsync_every =
  if fsync_every < 0 then invalid_arg "Wal.open_append: negative fsync_every";
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644 in
  (try Unix.ftruncate fd valid_bytes
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  mk_writer fd ~bytes:valid_bytes ~fsync_every

let fsync_timed fd = Obs.Timer.observe m_fsync_ns (fun () -> Unix.fsync fd)

let flush w =
  if w.pending > 0 then begin
    write_all w.fd (Buffer.contents w.buf);
    Buffer.clear w.buf;
    w.pending <- 0
  end;
  fsync_timed w.fd

let append w rec_ =
  if w.closed then invalid_arg "Wal.append: writer is closed";
  let n = w.appended + 1 in
  Failpoint.hit "wal.append" ~index:n;
  Obs.Timer.observe m_append_ns (fun () ->
      let frame = encode_frame rec_ in
      (* Fault injection: land half of the frame on disk, durably, then
         die — the canonical torn-tail crash the recovery path must
         survive. *)
      (try Failpoint.hit "wal.torn_append" ~index:n
       with Failpoint.Injected _ as e ->
         write_all w.fd (Buffer.contents w.buf);
         Buffer.clear w.buf;
         w.pending <- 0;
         write_all w.fd (String.sub frame 0 (max 1 (String.length frame / 2)));
         fsync_timed w.fd;
         raise e);
      Buffer.add_string w.buf frame;
      w.bytes <- w.bytes + String.length frame;
      w.appended <- n;
      w.pending <- w.pending + 1;
      Obs.Metrics.add m_append_bytes (String.length frame);
      if w.fsync_every > 0 && w.pending >= w.fsync_every then flush w)

let bytes w = w.bytes

let close w =
  if not w.closed then begin
    flush w;
    w.closed <- true;
    Unix.close w.fd
  end

let abandon w =
  if not w.closed then begin
    w.closed <- true;
    Unix.close w.fd
  end

(* ---------- recovery ---------- *)

type recovery = {
  base_samples : int;
  records : record list;
  valid_bytes : int;
  torn : bool;
}

let recover ~path =
  let s = Codec.read_file ~path in
  let n = String.length s in
  let mlen = String.length magic in
  if n < mlen + 1 + 1 + 4 then
    raise (Codec.Corrupt (Printf.sprintf "WAL header too short (%d bytes)" n));
  if not (String.equal (String.sub s 0 mlen) magic) then
    raise (Codec.Corrupt (Printf.sprintf "bad WAL magic %S" (String.sub s 0 mlen)));
  let v = Char.code s.[mlen] in
  if not (Int.equal v version) then
    raise
      (Codec.Corrupt (Printf.sprintf "unsupported WAL version %d (expected %d)" v version));
  let base_samples, hdr_end =
    match scan_uvarint s (mlen + 1) with
    | Some r -> r
    | None -> raise (Codec.Corrupt "truncated WAL header")
  in
  if hdr_end + 4 > n then raise (Codec.Corrupt "truncated WAL header");
  let stored = scan_crc s hdr_end in
  let computed = Codec.crc32 (String.sub s 0 hdr_end) in
  if not (Int32.equal stored computed) then
    raise
      (Codec.Corrupt
         (Printf.sprintf "WAL header CRC mismatch (stored %08lx, computed %08lx)" stored
            computed));
  let hdr_len = hdr_end + 4 in
  (* Scan frames forward; the first frame that is incomplete or fails its
     CRC ends the valid prefix — that is the torn group-commit tail, not
     corruption, so recovery succeeds with everything before it. *)
  let records = ref [] in
  let pos = ref hdr_len in
  let stop = ref false in
  while not !stop do
    match scan_uvarint s !pos with
    | None -> stop := true
    | Some (plen, payload_at) ->
        if plen < 0 || payload_at + plen + 4 > n then stop := true
        else begin
          let body = String.sub s !pos (payload_at + plen - !pos) in
          let stored = scan_crc s (payload_at + plen) in
          if not (Int32.equal stored (Codec.crc32 body)) then stop := true
          else begin
            (* CRC valid: a payload that will not decode can only be a
               writer bug or tampering — surface it, don't truncate. *)
            records := decode_record (String.sub s payload_at plen) :: !records;
            pos := payload_at + plen + 4
          end
        end
  done;
  { base_samples; records = List.rev !records; valid_bytes = !pos; torn = !pos < n }
