open Relational

(* Tagged value: [0]=Null, [1]=Int (zigzag varint), [2]=Float (8-byte
   IEEE-754 LE), [3]=Bool, [4]=Text (length-prefixed). Decoding raises
   [Codec.Corrupt] on an unknown tag or truncation. *)
let enc_value b = function
  | Value.Null -> Codec.W.u8 b 0
  | Value.Int n ->
      Codec.W.u8 b 1;
      Codec.W.varint b n
  | Value.Float x ->
      Codec.W.u8 b 2;
      Codec.W.float b x
  | Value.Bool v ->
      Codec.W.u8 b 3;
      Codec.W.bool b v
  | Value.Text s ->
      Codec.W.u8 b 4;
      Codec.W.string b s

let dec_value r =
  match Codec.R.u8 r with
  | 0 -> Value.Null
  | 1 -> Value.Int (Codec.R.varint r)
  | 2 -> Value.Float (Codec.R.float r)
  | 3 -> Value.Bool (Codec.R.bool r)
  | 4 -> Value.Text (Codec.R.string r)
  | n -> raise (Codec.Corrupt (Printf.sprintf "bad value tag %d" n))

(* Arity as uvarint, then each value. *)
let enc_row b row =
  Codec.W.uvarint b (Array.length row);
  Array.iter (enc_value b) row

let dec_row r =
  let n = Codec.R.uvarint r in
  Array.init n (fun _ -> dec_value r)

let enc_entry b (row, count) =
  enc_row b row;
  Codec.W.varint b count

let dec_entry r =
  let row = dec_row r in
  let count = Codec.R.varint r in
  (row, count)

(* Algebra.t is a pure, closure-free ADT (Algebra + Expr constructors over
   strings and Values), so Marshal gives deterministic bytes for equal
   plans — the blob is itself inside the enclosing frame's CRC. *)
let enc_algebra b (alg : Algebra.t) = Codec.W.string b (Marshal.to_string alg [])

let dec_algebra r : Algebra.t =
  let blob = Codec.R.string r in
  match (Marshal.from_string blob 0 : Algebra.t) with
  | alg -> alg
  | exception _ -> raise (Codec.Corrupt "undecodable query plan")
