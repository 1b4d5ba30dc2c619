open Relational

let version = 3

let m_encode_ns = Obs.Metrics.histogram "checkpoint.encode_ns"
let m_write_ns = Obs.Metrics.histogram "checkpoint.write_ns"
let m_bytes = Obs.Metrics.gauge "checkpoint.bytes"
let m_restores = Obs.Metrics.counter "checkpoint.restore.count"

type table_state = {
  t_name : string;
  t_pk : string option;
  t_columnar : bool;
  t_schema : (string * Value.ty) list;
  t_indexed : string list;
  t_rows : (Row.t * int) list;
}

type query_state = {
  q_id : int;
  q_name : string;
  q_algebra : Algebra.t;
  q_counts : (Row.t * int) list;
  q_z : int;
}

type t = {
  samples : int;
  steps : int;
  proposed : int;
  accepted : int;
  next_id : int;
  rng : string;
  tables : table_state list;
  queries : query_state list;
}

(* ---------- payload grammar ----------

   Value/row/entry/plan spellings are shared with the WAL's record grammar
   and live in Wire; this module owns only the snapshot-specific shapes
   (tables, query states, the top-level envelope). *)

let enc_ty b ty =
  Codec.W.u8 b
    (match ty with Value.T_int -> 0 | T_float -> 1 | T_bool -> 2 | T_text -> 3)

let dec_ty r =
  match Codec.R.u8 r with
  | 0 -> Value.T_int
  | 1 -> Value.T_float
  | 2 -> Value.T_bool
  | 3 -> Value.T_text
  | n -> raise (Codec.Corrupt (Printf.sprintf "bad type tag %d" n))

let enc_entry = Wire.enc_entry
let dec_entry = Wire.dec_entry

let enc_column b (name, ty) =
  Codec.W.string b name;
  enc_ty b ty

let dec_column r =
  let name = Codec.R.string r in
  (name, dec_ty r)

let enc_table b ts =
  Codec.W.string b ts.t_name;
  Codec.W.option b Codec.W.string ts.t_pk;
  Codec.W.bool b ts.t_columnar;
  Codec.W.list b enc_column ts.t_schema;
  Codec.W.list b Codec.W.string ts.t_indexed;
  Codec.W.list b enc_entry ts.t_rows

let dec_table r =
  let t_name = Codec.R.string r in
  let t_pk = Codec.R.option r Codec.R.string in
  let t_columnar = Codec.R.bool r in
  let t_schema = Codec.R.list r dec_column in
  let t_indexed = Codec.R.list r Codec.R.string in
  let t_rows = Codec.R.list r dec_entry in
  { t_name; t_pk; t_columnar; t_schema; t_indexed; t_rows }

let enc_query b q =
  Codec.W.uvarint b q.q_id;
  Codec.W.string b q.q_name;
  Wire.enc_algebra b q.q_algebra;
  Codec.W.list b enc_entry q.q_counts;
  Codec.W.uvarint b q.q_z

let dec_query r =
  let q_id = Codec.R.uvarint r in
  let q_name = Codec.R.string r in
  let q_algebra = Wire.dec_algebra r in
  let q_counts = Codec.R.list r dec_entry in
  let q_z = Codec.R.uvarint r in
  { q_id; q_name; q_algebra; q_counts; q_z }

let encode t =
  let b = Codec.W.create () in
  Codec.W.uvarint b t.samples;
  Codec.W.uvarint b t.steps;
  Codec.W.uvarint b t.proposed;
  Codec.W.uvarint b t.accepted;
  Codec.W.uvarint b t.next_id;
  Codec.W.string b t.rng;
  Codec.W.list b enc_table t.tables;
  Codec.W.list b enc_query t.queries;
  Codec.frame ~version (Codec.W.contents b)

let decode s =
  let r = Codec.R.of_string (Codec.unframe ~expect_version:version s) in
  let samples = Codec.R.uvarint r in
  let steps = Codec.R.uvarint r in
  let proposed = Codec.R.uvarint r in
  let accepted = Codec.R.uvarint r in
  let next_id = Codec.R.uvarint r in
  let rng = Codec.R.string r in
  let tables = Codec.R.list r dec_table in
  let queries = Codec.R.list r dec_query in
  if not (Codec.R.at_end r) then
    raise (Codec.Corrupt "trailing bytes after snapshot payload");
  { samples; steps; proposed; accepted; next_id; rng; tables; queries }

(* ---------- database image ---------- *)

let capture_tables db =
  Database.tables db
  |> List.map (fun tbl ->
         let schema = Table.schema tbl in
         let columns =
           List.map (fun c -> (c.Schema.name, c.Schema.ty)) (Schema.columns schema)
         in
         {
           t_name = Table.name tbl;
           t_pk = Table.pk_column tbl;
           t_columnar = (match Table.storage tbl with `Columnar -> true | `Boxed -> false);
           t_schema = columns;
           t_indexed =
             List.filter (Table.has_index tbl) (Schema.names schema)
             |> List.sort String.compare;
           t_rows = Table.sorted_entries tbl;
         })
  |> List.sort (fun a b -> String.compare a.t_name b.t_name)

let restore_db tables =
  let db = Database.create () in
  List.iter
    (fun ts ->
      let schema =
        Schema.make
          (List.map (fun (name, ty) -> { Schema.name; ty }) ts.t_schema)
      in
      let tbl =
        match (ts.t_columnar, ts.t_pk) with
        | false, pk -> Database.create_table db ?pk ~name:ts.t_name schema
        | true, Some pk ->
          let tbl = Table.create_columnar ~pk ~name:ts.t_name schema in
          Database.add_table db tbl;
          tbl
        | true, None ->
          raise (Codec.Corrupt (Printf.sprintf "columnar table %S has no primary key" ts.t_name))
      in
      List.iter
        (fun (row, count) ->
          if count < 0 then
            raise (Codec.Corrupt (Printf.sprintf "negative row count in %S" ts.t_name));
          for _ = 1 to count do
            Table.insert tbl row
          done)
        ts.t_rows;
      List.iter (Table.create_index tbl) ts.t_indexed)
    tables;
  db

(* ---------- files ---------- *)

let save ~path t =
  let data = Obs.Timer.observe m_encode_ns (fun () -> encode t) in
  let bytes =
    Obs.Timer.observe m_write_ns (fun () -> Codec.write_file ~path data)
  in
  Obs.Metrics.set_gauge m_bytes (float_of_int bytes);
  bytes

let load ~path =
  let t = decode (Codec.read_file ~path) in
  Obs.Metrics.incr m_restores;
  t
