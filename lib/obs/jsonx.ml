let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let str s = "\"" ^ escape s ^ "\""
let int = string_of_int

let float x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let obj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> str k ^ ":" ^ v) fields) ^ "}"

let arr items = "[" ^ String.concat "," items ^ "]"

(* ---------- values ---------- *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num x -> float x
  | Str s -> str s
  | Arr items -> arr (List.map to_string items)
  | Obj fields -> obj (List.map (fun (k, v) -> (k, to_string v)) fields)

let field v name =
  match v with
  | Obj fields -> (
    match List.find_opt (fun (k, _) -> String.equal k name) fields with
    | Some (_, v) -> Some v
    | None -> None)
  | _ -> None

(* ---------- parser ---------- *)

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

type cursor = { s : string; mutable pos : int }

let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  let rec go () =
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance c;
      go ()
    | _ -> ()
  in
  go ()

let expect c ch =
  match peek c with
  | Some x when Char.equal x ch -> advance c
  | Some x -> fail "expected %C at offset %d, found %C" ch c.pos x
  | None -> fail "expected %C at offset %d, found end of input" ch c.pos

let parse_literal c lit value =
  let n = String.length lit in
  if c.pos + n <= String.length c.s && String.equal (String.sub c.s c.pos n) lit then begin
    c.pos <- c.pos + n;
    value
  end
  else fail "invalid literal at offset %d" c.pos

(* Exactly four hex digits; [int_of_string] would also take '_'. *)
let hex4 c =
  if c.pos + 4 > String.length c.s then fail "truncated \\u escape";
  let hex = String.sub c.s c.pos 4 in
  let digit = function
    | '0' .. '9' as d -> Char.code d - Char.code '0'
    | 'a' .. 'f' as d -> Char.code d - Char.code 'a' + 10
    | 'A' .. 'F' as d -> Char.code d - Char.code 'A' + 10
    | _ -> fail "invalid \\u escape %S" hex
  in
  c.pos <- c.pos + 4;
  String.fold_left (fun acc d -> (acc lsl 4) lor digit d) 0 hex

(* A \u escape names a UTF-16 code unit: a high surrogate must pair with
   an escaped low one to name a code point above the BMP. *)
let escaped_code_point c =
  let is_low u = u >= 0xDC00 && u <= 0xDFFF in
  let u = hex4 c in
  if u >= 0xD800 && u <= 0xDBFF then begin
    if not (c.pos + 1 < String.length c.s && Char.equal c.s.[c.pos] '\\'
            && Char.equal c.s.[c.pos + 1] 'u')
    then fail "unpaired surrogate \\u%04x" u;
    c.pos <- c.pos + 2;
    let lo = hex4 c in
    if not (is_low lo) then fail "unpaired surrogate \\u%04x" u;
    0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00)
  end
  else if is_low u then fail "unpaired surrogate \\u%04x" u
  else u

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail "unterminated string"
    | Some '"' -> advance c
    | Some '\\' -> (
      advance c;
      match peek c with
      | None -> fail "unterminated escape"
      | Some ch ->
        advance c;
        (match ch with
         | '"' -> Buffer.add_char buf '"'
         | '\\' -> Buffer.add_char buf '\\'
         | '/' -> Buffer.add_char buf '/'
         | 'n' -> Buffer.add_char buf '\n'
         | 'r' -> Buffer.add_char buf '\r'
         | 't' -> Buffer.add_char buf '\t'
         | 'b' -> Buffer.add_char buf '\b'
         | 'f' -> Buffer.add_char buf '\012'
         | 'u' -> Buffer.add_utf_8_uchar buf (Uchar.of_int (escaped_code_point c))
         | _ -> fail "invalid escape \\%C" ch);
        go ())
    | Some ch ->
      advance c;
      Buffer.add_char buf ch;
      go ()
  in
  go ();
  Buffer.contents buf

(* RFC 8259 number: -? (0 | [1-9][0-9]* ) (.[0-9]+)? ([eE][+-]?[0-9]+)? *)
let is_number t =
  let n = String.length t in
  let i = ref 0 in
  let at ch = !i < n && Char.equal t.[!i] ch in
  let digits () =
    let start = !i in
    while !i < n && t.[!i] >= '0' && t.[!i] <= '9' do
      incr i
    done;
    !i > start
  in
  if at '-' then incr i;
  let int_ok = if at '0' then (incr i; true) else digits () in
  let frac_ok = (not (at '.')) || (incr i; digits ()) in
  let exp_ok =
    (not (at 'e' || at 'E'))
    || (incr i;
        if at '+' || at '-' then incr i;
        digits ())
  in
  int_ok && frac_ok && exp_ok && !i = n

(* Scan the longest run of number characters, then hold it to the RFC
   grammar: a valid number is never followed by one of these characters,
   so validating the whole run rejects exactly the malformed ones. *)
let parse_number c =
  let start = c.pos in
  let rec go () =
    match peek c with
    | Some ('0' .. '9' | '-' | '+' | '.' | 'e' | 'E') ->
      advance c;
      go ()
    | _ -> ()
  in
  go ();
  if Int.equal start c.pos then fail "expected a number at offset %d" start;
  let text = String.sub c.s start (c.pos - start) in
  match float_of_string_opt text with
  | Some f when is_number text ->
    if Float.is_finite f then f else fail "number %s is out of range" text
  | _ -> fail "invalid number %S" text

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail "unexpected end of input"
  | Some '{' ->
    advance c;
    skip_ws c;
    if (match peek c with Some '}' -> true | _ -> false) then begin
      advance c;
      Obj []
    end
    else begin
      let rec fields acc =
        skip_ws c;
        let k = parse_string c in
        skip_ws c;
        expect c ':';
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          fields ((k, v) :: acc)
        | Some '}' ->
          advance c;
          List.rev ((k, v) :: acc)
        | _ -> fail "expected ',' or '}' at offset %d" c.pos
      in
      Obj (fields [])
    end
  | Some '[' ->
    advance c;
    skip_ws c;
    if (match peek c with Some ']' -> true | _ -> false) then begin
      advance c;
      Arr []
    end
    else begin
      let rec items acc =
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          items (v :: acc)
        | Some ']' ->
          advance c;
          List.rev (v :: acc)
        | _ -> fail "expected ',' or ']' at offset %d" c.pos
      in
      Arr (items [])
    end
  | Some '"' -> Str (parse_string c)
  | Some 't' -> parse_literal c "true" (Bool true)
  | Some 'f' -> parse_literal c "false" (Bool false)
  | Some 'n' -> parse_literal c "null" Null
  | Some _ -> Num (parse_number c)

let parse s =
  let c = { s; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.pos < String.length s then fail "trailing bytes at offset %d" c.pos;
  v
