(* Columnar storage: one unboxed array per column, text as Intern ids.
   See col_store.mli for the contract.

   Slot layout: rows live in insertion order at slots [0 .. len-1];
   deletion moves the last row into the vacated slot. While primary keys
   happen to arrive as the dense sequence 0,1,2,... (the TOKEN loader's
   tok_id does), pk = slot and the pk→slot hashtable is elided; the
   first out-of-order key materialises it. *)

module IT = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)

type col =
  | C_int of int array
  | C_text of int array (* Intern ids *)
  | C_float of float array
  | C_bool of Bytes.t

type index = { icol : int; buckets : int list IT.t }

type t = {
  cname : string;
  schema : Schema.t;
  pk : int;
  mutable cols : col array;
  mutable cap : int;
  mutable len : int;
  mutable dense : bool; (* pk value = slot for every live row *)
  slots : int IT.t; (* pk -> slot; unused while [dense] *)
  mutable indexes : index list;
  (* Decoded whole-table bag, shared by every [to_bag] until the next
     mutation — scans (view builds, naive re-evaluation) would otherwise
     re-decode all rows per call. Read-only, like the boxed live bag. *)
  mutable cached_bag : Bag.t option;
}

let m_bytes_per_row = Obs.Metrics.gauge "storage.bytes_per_row"

let col_of_ty cap ty =
  match ty with
  | Value.T_int -> C_int (Array.make cap 0)
  | Value.T_text -> C_text (Array.make cap 0)
  | Value.T_float -> C_float (Array.make cap 0.)
  | Value.T_bool -> C_bool (Bytes.make cap '\000')

let create ~pk ~name schema =
  (match (Schema.column schema pk).Schema.ty with
  | Value.T_int -> ()
  | _ ->
    invalid_arg
      (Printf.sprintf "Col_store.create(%s): primary key %s must be T_int" name
         (Schema.column schema pk).Schema.name));
  {
    cname = name;
    schema;
    pk;
    cols = Array.of_list (List.map (fun c -> col_of_ty 0 c.Schema.ty) (Schema.columns schema));
    cap = 0;
    len = 0;
    dense = true;
    slots = IT.create 64;
    indexes = [];
    cached_bag = None;
  }

let cardinal t = t.len

(* ---------------- cell codec ---------------- *)

let ty_name = function
  | Value.T_int -> "int"
  | Value.T_float -> "float"
  | Value.T_bool -> "bool"
  | Value.T_text -> "text"

let validate_cell t i v =
  match (t.cols.(i), v) with
  | C_int _, Value.Int _
  | C_text _, Value.Text _
  | C_float _, Value.Float _
  | C_bool _, Value.Bool _ -> ()
  | _, Value.Null ->
    invalid_arg
      (Printf.sprintf "Col_store(%s): NULL not storable in columnar column %s" t.cname
         (Schema.column t.schema i).Schema.name)
  | _ ->
    invalid_arg
      (Printf.sprintf "Col_store(%s): column %s expects %s, got %s" t.cname
         (Schema.column t.schema i).Schema.name
         (ty_name (Schema.column t.schema i).Schema.ty)
         (Value.to_string v))

let store_cell t i slot v =
  match (t.cols.(i), v) with
  | C_int a, Value.Int n -> a.(slot) <- n
  | C_text a, Value.Text s -> a.(slot) <- Intern.intern s
  | C_float a, Value.Float f -> a.(slot) <- f
  | C_bool b, Value.Bool v -> Bytes.set b slot (if v then '\001' else '\000')
  | _ -> assert false (* validate_cell ran first *)

let decode_cell t ~col slot =
  match t.cols.(col) with
  | C_int a -> Value.Int a.(slot)
  | C_text a -> Intern.value a.(slot)
  | C_float a -> Value.Float a.(slot)
  | C_bool b -> if Bytes.get b slot = '\000' then Value.Bool false else Value.Bool true

let decode_row t slot = Array.init (Array.length t.cols) (fun i -> decode_cell t ~col:i slot)

(* Raw encoded int of an int/text/bool cell; float columns have no int
   encoding and the callers (pk, secondary indexes) exclude them. *)
let encoded_at t i slot =
  match t.cols.(i) with
  | C_int a | C_text a -> a.(slot)
  | C_bool b -> Char.code (Bytes.get b slot)
  | C_float _ -> assert false

(* Encode a probe value against column [i], or None if no stored row
   could equal it (numeric keys unify like Value.equal does). *)
let probe_key t i (v : Value.t) =
  let exact_int f = Float.is_integer f && Float.abs f <= 9007199254740992. in
  match (t.cols.(i), v) with
  | C_int _, Value.Int n -> Some n
  | C_int _, Value.Float f when exact_int f -> Some (int_of_float f)
  | C_text _, Value.Text s -> Intern.find_opt s
  | C_bool _, Value.Bool b -> Some (Bool.to_int b)
  | _ -> None

(* ---------------- pk -> slot ---------------- *)

let undense t =
  if t.dense then begin
    for s = 0 to t.len - 1 do
      IT.replace t.slots s s
    done;
    t.dense <- false
  end

let find_slot_int t k =
  if t.dense then if k >= 0 && k < t.len then Some k else None else IT.find_opt t.slots k

let find_slot t key =
  match probe_key t t.pk key with None -> None | Some k -> find_slot_int t k

(* ---------------- secondary indexes ---------------- *)

let index_add idx key slot =
  IT.replace idx.buckets key (slot :: Option.value ~default:[] (IT.find_opt idx.buckets key))

let index_remove idx key slot =
  match IT.find_opt idx.buckets key with
  | None -> ()
  | Some ss -> (
    match List.filter (fun s -> not (Int.equal s slot)) ss with
    | [] -> IT.remove idx.buckets key
    | ss -> IT.replace idx.buckets key ss)

let indexes_add t slot = List.iter (fun idx -> index_add idx (encoded_at t idx.icol slot) slot) t.indexes

let indexes_remove_keys t keys slot =
  List.iter (fun idx -> index_remove idx keys.(idx.icol) slot) t.indexes

(* ---------------- size accounting ---------------- *)

let approx_bytes t =
  let words_of_col = function
    | C_int a | C_text a -> 1 + Array.length a
    | C_float a -> 1 + Array.length a
    | C_bool b -> 1 + ((Bytes.length b + 7) / 8)
  in
  let cols = Array.fold_left (fun acc c -> acc + words_of_col c) 0 t.cols in
  let slots = if t.dense then 0 else 4 * IT.length t.slots in
  let idx =
    List.fold_left
      (fun acc i -> acc + IT.fold (fun _ ss a -> a + 4 + (3 * List.length ss)) i.buckets 0)
      0 t.indexes
  in
  8 * (cols + slots + idx)

let note_size t =
  if Obs.Metrics.enabled () && t.len > 0 then
    Obs.Metrics.set_gauge m_bytes_per_row (float_of_int (approx_bytes t) /. float_of_int t.len)

(* ---------------- mutation ---------------- *)

let grow t =
  let cap = max 64 (2 * t.cap) in
  t.cols <-
    Array.map
      (function
        | C_int a ->
          let b = Array.make cap 0 in
          Array.blit a 0 b 0 t.len;
          C_int b
        | C_text a ->
          let b = Array.make cap 0 in
          Array.blit a 0 b 0 t.len;
          C_text b
        | C_float a ->
          let b = Array.make cap 0. in
          Array.blit a 0 b 0 t.len;
          C_float b
        | C_bool a ->
          let b = Bytes.make cap '\000' in
          Bytes.blit a 0 b 0 t.len;
          C_bool b)
      t.cols;
  t.cap <- cap

let invalidate t = t.cached_bag <- None

let insert t row =
  invalidate t;
  Array.iteri (fun i v -> validate_cell t i v) row;
  let k = match row.(t.pk) with Value.Int k -> k | _ -> assert false in
  (match find_slot_int t k with
  | Some _ ->
    invalid_arg
      (Printf.sprintf "Table.insert(%s): duplicate key %s" t.cname (Value.to_string row.(t.pk)))
  | None -> ());
  if Int.equal t.len t.cap then grow t;
  let slot = t.len in
  Array.iteri (fun i v -> store_cell t i slot v) row;
  if t.dense then begin
    if not (Int.equal k slot) then begin
      undense t;
      IT.replace t.slots k slot
    end
  end
  else IT.replace t.slots k slot;
  t.len <- slot + 1;
  indexes_add t slot;
  note_size t

let delete t row =
  if Array.length row <> Array.length t.cols then raise Not_found;
  invalidate t;
  (try Array.iteri (fun i v -> validate_cell t i v) row with Invalid_argument _ -> raise Not_found);
  let slot = match find_slot t row.(t.pk) with Some s -> s | None -> raise Not_found in
  if not (Row.equal row (decode_row t slot)) then raise Not_found;
  let last = t.len - 1 in
  let k = match row.(t.pk) with Value.Int k -> k | _ -> assert false in
  (* Deleting anything but the top of a dense store breaks density. *)
  if t.dense && not (Int.equal slot last) then undense t;
  (* Drop the victim's index entries while its cells are still intact. *)
  let victim_keys =
    Array.init (Array.length t.cols)
      (fun i -> match t.cols.(i) with C_float _ -> 0 | _ -> encoded_at t i slot)
  in
  indexes_remove_keys t victim_keys slot;
  if not (Int.equal slot last) then begin
    (* Move the last row into the hole; re-key its index + pk entries. *)
    let moved_keys =
      Array.init (Array.length t.cols)
        (fun i -> match t.cols.(i) with C_float _ -> 0 | _ -> encoded_at t i last)
    in
    indexes_remove_keys t moved_keys last;
    Array.iter
      (function
        | C_int a | C_text a -> a.(slot) <- a.(last)
        | C_float a -> a.(slot) <- a.(last)
        | C_bool b -> Bytes.set b slot (Bytes.get b last))
      t.cols;
    let moved_pk = encoded_at t t.pk slot in
    if not t.dense then IT.replace t.slots moved_pk slot;
    t.len <- last;
    indexes_add t slot
  end
  else t.len <- last;
  if not t.dense then IT.remove t.slots k;
  note_size t

let set_cell t ~col slot v =
  invalidate t;
  if Int.equal col t.pk then
    invalid_arg (Printf.sprintf "Col_store(%s): primary-key column is immutable" t.cname);
  validate_cell t col v;
  let has_idx = List.exists (fun idx -> Int.equal idx.icol col) t.indexes in
  if has_idx then
    List.iter
      (fun idx -> if Int.equal idx.icol col then index_remove idx (encoded_at t col slot) slot)
      t.indexes;
  store_cell t col slot v;
  if has_idx then
    List.iter
      (fun idx -> if Int.equal idx.icol col then index_add idx (encoded_at t col slot) slot)
      t.indexes

let iter f t =
  for slot = 0 to t.len - 1 do
    f (decode_row t slot)
  done

let to_bag t =
  match t.cached_bag with
  | Some bag -> bag
  | None ->
    let bag = Bag.create () in
    iter (fun row -> Bag.add bag row) t;
    t.cached_bag <- Some bag;
    bag

let pk_ordered_entries t =
  match t.cols.(t.pk) with
  | C_int keys when Int.equal t.pk 0 ->
    let ordered =
      t.dense
      ||
      let ok = ref true in
      for slot = 1 to t.len - 1 do
        if keys.(slot - 1) >= keys.(slot) then ok := false
      done;
      !ok
    in
    if ordered then begin
      let acc = ref [] in
      for slot = t.len - 1 downto 0 do
        acc := (decode_row t slot, 1) :: !acc
      done;
      Some !acc
    end
    else None
  | _ -> None

let create_index t col =
  (match t.cols.(col) with
  | C_float _ ->
    invalid_arg
      (Printf.sprintf "Col_store(%s): no columnar index on float column %s" t.cname
         (Schema.column t.schema col).Schema.name)
  | _ -> ());
  t.indexes <- List.filter (fun idx -> not (Int.equal idx.icol col)) t.indexes;
  let idx = { icol = col; buckets = IT.create 256 } in
  for slot = 0 to t.len - 1 do
    index_add idx (encoded_at t col slot) slot
  done;
  t.indexes <- idx :: t.indexes

let has_index t col = List.exists (fun idx -> Int.equal idx.icol col) t.indexes

let distinct_in_index t col =
  if Int.equal col t.pk then Some t.len
  else
    match List.find_opt (fun idx -> Int.equal idx.icol col) t.indexes with
    | Some idx -> Some (IT.length idx.buckets)
    | None -> None

let lookup t ~col v =
  match List.find_opt (fun idx -> Int.equal idx.icol col) t.indexes with
  | None -> raise Not_found
  | Some idx -> (
    let bag = Bag.create () in
    match probe_key t col v with
    | None -> bag
    | Some key ->
      List.iter
        (fun slot -> Bag.add bag (decode_row t slot))
        (Option.value ~default:[] (IT.find_opt idx.buckets key));
      bag)

let select t eqs keep =
  let out = Bag.create () in
  (* [(col, key)] per usable equality; None when one can never hold. *)
  let rec encode acc = function
    | [] -> Some acc
    | (col, v) :: rest -> (
      match (t.cols.(col), v) with
      | C_float _, _ -> encode acc rest
      (* Past 2^53, Value.compare rounds the int side to float, so
         several stored ints equal one such constant: no single key. *)
      | C_int _, Value.Float f when Float.abs f >= 0x1p53 -> encode acc rest
      | _ -> (
        match probe_key t col v with None -> None | Some k -> encode ((col, k) :: acc) rest))
  in
  let rec pass slot = function
    | [] -> true
    | (col, k) :: rest -> Int.equal (encoded_at t col slot) k && pass slot rest
  in
  (match encode [] eqs with
  | None -> ()
  | Some keys ->
    for slot = 0 to t.len - 1 do
      if pass slot keys then begin
        let row = decode_row t slot in
        if keep row then Bag.add out row
      end
    done);
  out

let column_ints t col =
  match t.cols.(col) with
  | C_float _ -> None
  | _ -> Some (Array.init t.len (fun slot -> encoded_at t col slot))
