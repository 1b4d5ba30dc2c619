type column = { name : string; ty : Value.ty }
type t = column array

exception Ambiguous_column of string

let make cols =
  let a = Array.of_list cols in
  let seen = Str_tbl.create 8 in
  Array.iter
    (fun c ->
      if Str_tbl.mem seen c.name then failwith ("Schema.make: duplicate column " ^ c.name);
      Str_tbl.add seen c.name ())
    a;
  a

let columns s = Array.to_list s
let arity = Array.length
let column s i = s.(i)

let bare name =
  match String.rindex_opt name '.' with
  | None -> name
  | Some i -> String.sub name (i + 1) (String.length name - i - 1)

let index_of s name =
  (* SQL identifiers are case-insensitive; exact match wins, then a
     case-insensitive full-name match, then bare-name resolution ("STRING"
     matches "T1.String" when unambiguous). *)
  let exact = ref (-1) in
  Array.iteri (fun i c -> if String.equal c.name name then exact := i) s;
  if !exact >= 0 then !exact
  else begin
    let lname = String.lowercase_ascii name in
    let ci = ref [] in
    Array.iteri
      (fun i c -> if String.equal (String.lowercase_ascii c.name) lname then ci := i :: !ci)
      s;
    match !ci with
    | [ i ] -> i
    | _ :: _ -> raise (Ambiguous_column name)
    | [] when String.contains name '.' ->
      (* A qualified name must match a qualified column — falling back to the
         bare suffix would let T1.x resolve to T2.x. *)
      raise Not_found
    | [] -> (
      let lbare = String.lowercase_ascii (bare name) in
      let matches = ref [] in
      Array.iteri
        (fun i c ->
          if String.equal (String.lowercase_ascii (bare c.name)) lbare then
            matches := i :: !matches)
        s;
      match !matches with
      | [ i ] -> i
      | [] -> raise Not_found
      | _ -> raise (Ambiguous_column name))
  end

let names s = Array.to_list (Array.map (fun c -> c.name) s)

let qualify alias s = Array.map (fun c -> { c with name = alias ^ "." ^ bare c.name }) s

let concat a b =
  let joined = Array.append a b in
  let seen = Str_tbl.create 8 in
  Array.iter
    (fun c ->
      if Str_tbl.mem seen c.name then failwith ("Schema.concat: duplicate column " ^ c.name);
      Str_tbl.add seen c.name ())
    joined;
  joined

let project s cols =
  let positions = Array.of_list (List.map (index_of s) cols) in
  let projected =
    Array.map (fun i -> { s.(i) with name = bare s.(i).name }) positions
  in
  (* Duplicate bare names after projection (e.g. projecting T1.X and T2.X)
     keep their qualified names to stay unambiguous. *)
  let counts = Str_tbl.create 8 in
  Array.iter
    (fun c ->
      Str_tbl.replace counts c.name (1 + (Option.value ~default:0 (Str_tbl.find_opt counts c.name))))
    projected;
  let projected =
    Array.mapi
      (fun j c -> if Str_tbl.find counts c.name > 1 then { c with name = s.(positions.(j)).name } else c)
      projected
  in
  (projected, positions)
