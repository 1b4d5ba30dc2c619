exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Lexer *)

type token =
  | T_ident of string (* possibly qualified: a.b *)
  | T_int of int
  | T_float of float
  | T_string of string
  | T_lparen
  | T_rparen
  | T_comma
  | T_star
  | T_op of string (* = <> < <= > >= + - *)
  | T_kw of string (* uppercased keyword *)
  | T_eof

let keywords =
  [ "SELECT"; "FROM"; "WHERE"; "AND"; "OR"; "NOT"; "GROUP"; "BY"; "AS";
    "COUNT"; "SUM"; "AVG"; "MIN"; "MAX"; "DISTINCT"; "ORDER"; "LIMIT"; "ASC";
    "DESC"; "IN"; "BETWEEN"; "LIKE"; "IS"; "NULL"; "HAVING"; "JOIN"; "INNER"; "ON" ]

let lex (src : string) : token list =
  let n = String.length src in
  let toks = ref [] in
  let emit t = toks := t :: !toks in
  let is_ident_char c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_' || c = '.'
  in
  let rec go i =
    if i >= n then ()
    else
      let c = src.[i] in
      if c = ' ' || c = '\t' || c = '\n' || c = '\r' then go (i + 1)
      else if c = '(' then (emit T_lparen; go (i + 1))
      else if c = ')' then (emit T_rparen; go (i + 1))
      else if c = ',' then (emit T_comma; go (i + 1))
      else if c = '*' then (emit T_star; go (i + 1))
      else if c = '\'' then begin
        (* string literal; '' escapes a quote *)
        let buf = Buffer.create 16 in
        let rec str j =
          if j >= n then fail "unterminated string literal"
          else if src.[j] = '\'' then
            if j + 1 < n && src.[j + 1] = '\'' then (Buffer.add_char buf '\''; str (j + 2))
            else j + 1
          else (Buffer.add_char buf src.[j]; str (j + 1))
        in
        let next = str (i + 1) in
        emit (T_string (Buffer.contents buf));
        go next
      end
      else if c = '<' then
        if i + 1 < n && src.[i + 1] = '=' then (emit (T_op "<="); go (i + 2))
        else if i + 1 < n && src.[i + 1] = '>' then (emit (T_op "<>"); go (i + 2))
        else (emit (T_op "<"); go (i + 1))
      else if c = '>' then
        if i + 1 < n && src.[i + 1] = '=' then (emit (T_op ">="); go (i + 2))
        else (emit (T_op ">"); go (i + 1))
      else if c = '=' then (emit (T_op "="); go (i + 1))
      else if c = '!' && i + 1 < n && src.[i + 1] = '=' then (emit (T_op "<>"); go (i + 2))
      else if c = '+' then (emit (T_op "+"); go (i + 1))
      else if c = '-' then (emit (T_op "-"); go (i + 1))
      else if (c >= '0' && c <= '9') then begin
        let j = ref i in
        let dot = ref false in
        while
          !j < n
          && ((src.[!j] >= '0' && src.[!j] <= '9') || (src.[!j] = '.' && not !dot))
        do
          if src.[!j] = '.' then dot := true;
          incr j
        done;
        let s = String.sub src i (!j - i) in
        if !dot then emit (T_float (float_of_string s)) else emit (T_int (int_of_string s));
        go !j
      end
      else if is_ident_char c then begin
        let j = ref i in
        while !j < n && is_ident_char src.[!j] do incr j done;
        let s = String.sub src i (!j - i) in
        let up = String.uppercase_ascii s in
        if List.mem up keywords then emit (T_kw up) else emit (T_ident s);
        go !j
      end
      else fail "unexpected character %c" c
  in
  go 0;
  List.rev (T_eof :: !toks)

(* ------------------------------------------------------------------ *)
(* Parser state: a mutable token cursor. *)

type cursor = { mutable toks : token list }

let peek cur = match cur.toks with [] -> T_eof | t :: _ -> t
let advance cur = match cur.toks with [] -> () | _ :: rest -> cur.toks <- rest

let token_equal a b =
  match a, b with
  | T_ident x, T_ident y | T_string x, T_string y | T_op x, T_op y | T_kw x, T_kw y ->
    String.equal x y
  | T_int x, T_int y -> Int.equal x y
  | T_float x, T_float y -> Float.equal x y
  | T_lparen, T_lparen | T_rparen, T_rparen | T_comma, T_comma | T_star, T_star
  | T_eof, T_eof -> true
  | _ -> false

let peek_is cur t = token_equal (peek cur) t

let expect cur t what =
  if token_equal (peek cur) t then advance cur else fail "expected %s" what

let expect_kw cur kw = expect cur (T_kw kw) kw

let ident cur =
  match peek cur with
  | T_ident s -> advance cur; s
  | _ -> fail "expected identifier"

(* ------------------------------------------------------------------ *)
(* AST prior to compilation *)

type operand =
  | O_col of string
  | O_lit of Value.t
  | O_subquery of subquery
  | O_arith of Expr.arith * operand * operand

and subquery = {
  sq_table : string;
  sq_alias : string option;
  sq_where : cond list; (* conjuncts *)
}

and cond =
  | C_cmp of Expr.cmp * operand * operand
  | C_and of cond * cond
  | C_or of cond * cond
  | C_not of cond
  | C_in of operand * Value.t list
  | C_between of operand * Value.t * Value.t
  | C_like of operand * string
  | C_is_null of operand * bool (* true = IS NULL, false = IS NOT NULL *)

type sel_item =
  | S_col of string
  | S_agg of Algebra.agg * string (* output name *)

type query = {
  select : sel_item list option; (* None = SELECT * *)
  distinct : bool;
  from : (string * string option) list;
  joins : (string * string option * cond) list; (* JOIN t [alias] ON cond *)
  where : cond option;
  group_by : string list;
  having : cond option;
  order_by : (string * Algebra.dir) list;
  limit_n : int option;
}

let cmp_of_op = function
  | "=" -> Expr.Eq
  | "<>" -> Expr.Neq
  | "<" -> Expr.Lt
  | "<=" -> Expr.Le
  | ">" -> Expr.Gt
  | ">=" -> Expr.Ge
  | op -> fail "unsupported operator %s" op

let parse_agg cur kw =
  expect cur T_lparen "(";
  let col =
    match peek cur with
    | T_star -> advance cur; None
    | T_ident c -> advance cur; Some c
    | _ -> fail "expected column or * in aggregate"
  in
  expect cur T_rparen ")";
  match kw, col with
  | "COUNT", None -> Algebra.Count_star
  | "COUNT", Some c -> Algebra.Count c
  | "SUM", Some c -> Algebra.Sum c
  | "AVG", Some c -> Algebra.Avg c
  | "MIN", Some c -> Algebra.Min c
  | "MAX", Some c -> Algebra.Max c
  | kw, None -> fail "%s requires a column argument" kw
  | kw, Some _ -> fail "unknown aggregate %s" kw

let rec parse_query cur : query =
  expect_kw cur "SELECT";
  let distinct = peek_is cur (T_kw "DISTINCT") in
  if distinct then advance cur;
  let select =
    if peek_is cur T_star then (advance cur; None)
    else begin
      let rec items acc =
        let item =
          match peek cur with
          | T_kw (("COUNT" | "SUM" | "AVG" | "MIN" | "MAX") as kw) ->
            advance cur;
            let agg = parse_agg cur kw in
            let name =
              if peek_is cur (T_kw "AS") then (advance cur; ident cur)
              else
                String.lowercase_ascii
                  (match agg with
                  | Algebra.Count_star -> "count"
                  | Count c -> "count_" ^ Schema.bare c
                  | Sum c -> "sum_" ^ Schema.bare c
                  | Avg c -> "avg_" ^ Schema.bare c
                  | Min c -> "min_" ^ Schema.bare c
                  | Max c -> "max_" ^ Schema.bare c)
            in
            S_agg (agg, name)
          | T_ident _ -> S_col (ident cur)
          | _ -> fail "expected select item"
        in
        if peek_is cur T_comma then (advance cur; items (item :: acc)) else List.rev (item :: acc)
      in
      Some (items [])
    end
  in
  expect_kw cur "FROM";
  let rec froms acc =
    let table = ident cur in
    let alias = match peek cur with T_ident a -> advance cur; Some a | _ -> None in
    let acc = (table, alias) :: acc in
    if peek_is cur T_comma then (advance cur; froms acc) else List.rev acc
  in
  let from = froms [] in
  (* Explicit JOIN ... ON clauses. *)
  let rec join_clauses acc =
    match peek cur with
    | T_kw "JOIN" | T_kw "INNER" ->
      if peek_is cur (T_kw "INNER") then (advance cur; expect_kw cur "JOIN") else advance cur;
      let table = ident cur in
      let alias = match peek cur with T_ident a -> advance cur; Some a | _ -> None in
      expect_kw cur "ON";
      let c = parse_cond cur in
      join_clauses ((table, alias, c) :: acc)
    | _ -> List.rev acc
  in
  let joins = join_clauses [] in
  let where = if peek_is cur (T_kw "WHERE") then (advance cur; Some (parse_cond cur)) else None in
  let group_by =
    if peek_is cur (T_kw "GROUP") then begin
      advance cur;
      expect_kw cur "BY";
      let rec cols acc =
        let c = ident cur in
        if peek_is cur T_comma then (advance cur; cols (c :: acc)) else List.rev (c :: acc)
      in
      cols []
    end
    else []
  in
  let having =
    if peek_is cur (T_kw "HAVING") then (advance cur; Some (parse_cond cur)) else None
  in
  let order_by =
    if peek_is cur (T_kw "ORDER") then begin
      advance cur;
      expect_kw cur "BY";
      let rec keys acc =
        let c = ident cur in
        let dir =
          match peek cur with
          | T_kw "ASC" -> advance cur; Algebra.Asc
          | T_kw "DESC" -> advance cur; Algebra.Desc
          | _ -> Algebra.Asc
        in
        if peek_is cur T_comma then (advance cur; keys ((c, dir) :: acc))
        else List.rev ((c, dir) :: acc)
      in
      keys []
    end
    else []
  in
  let limit_n =
    if peek_is cur (T_kw "LIMIT") then begin
      advance cur;
      match peek cur with
      | T_int n -> advance cur; Some n
      | _ -> fail "LIMIT expects an integer"
    end
    else None
  in
  { select; distinct; from; joins; where; group_by; having; order_by; limit_n }

and parse_cond cur : cond =
  let rec or_level () =
    let left = and_level () in
    if peek_is cur (T_kw "OR") then (advance cur; C_or (left, or_level ())) else left
  and and_level () =
    let left = atom () in
    if peek_is cur (T_kw "AND") then (advance cur; C_and (left, and_level ())) else left
  and atom () =
    match peek cur with
    | T_kw "NOT" ->
      advance cur;
      C_not (atom ())
    | T_lparen when is_cond_paren cur -> (
      advance cur;
      let c = parse_cond cur in
      expect cur T_rparen ")";
      (* A parenthesized condition may still be the left side of a
         comparison only when it was an operand; conditions are not
         comparable, so just return. *)
      c)
    | _ ->
      let left = parse_operand cur in
      (match peek cur with
      | T_op op ->
        advance cur;
        let right = parse_operand cur in
        C_cmp (cmp_of_op op, left, right)
      | T_kw "IN" ->
        advance cur;
        expect cur T_lparen "(";
        let rec lits acc =
          let v = parse_literal cur in
          if peek_is cur T_comma then (advance cur; lits (v :: acc)) else List.rev (v :: acc)
        in
        let vs = lits [] in
        expect cur T_rparen ")";
        C_in (left, vs)
      | T_kw "NOT" ->
        advance cur;
        (match peek cur with
        | T_kw "IN" ->
          advance cur;
          expect cur T_lparen "(";
          let rec lits acc =
            let v = parse_literal cur in
            if peek_is cur T_comma then (advance cur; lits (v :: acc)) else List.rev (v :: acc)
          in
          let vs = lits [] in
          expect cur T_rparen ")";
          C_not (C_in (left, vs))
        | T_kw "LIKE" ->
          advance cur;
          (match peek cur with
          | T_string p -> advance cur; C_not (C_like (left, p))
          | _ -> fail "LIKE expects a string pattern")
        | _ -> fail "expected IN or LIKE after NOT")
      | T_kw "BETWEEN" ->
        advance cur;
        let lo = parse_literal cur in
        expect_kw cur "AND";
        let hi = parse_literal cur in
        C_between (left, lo, hi)
      | T_kw "LIKE" ->
        advance cur;
        (match peek cur with
        | T_string p -> advance cur; C_like (left, p)
        | _ -> fail "LIKE expects a string pattern")
      | T_kw "IS" ->
        advance cur;
        (match peek cur with
        | T_kw "NULL" -> advance cur; C_is_null (left, true)
        | T_kw "NOT" ->
          advance cur;
          (match peek cur with
          | T_kw "NULL" -> advance cur; C_is_null (left, false)
          | _ -> fail "expected NULL after IS NOT")
        | _ -> fail "expected NULL after IS")
      | _ -> fail "expected comparison operator")
  in
  or_level ()

and parse_literal cur =
  match peek cur with
  | T_int n -> advance cur; Value.Int n
  | T_float f -> advance cur; Value.Float f
  | T_string s -> advance cur; Value.Text s
  | T_kw "NULL" -> advance cur; Value.Null
  | _ -> fail "expected literal"

(* Distinguish "(cond)" from "(SELECT ...)" and "(operand op ...)": a paren
   followed by SELECT is a subquery operand; otherwise if the parenthesized
   text contains a top-level AND/OR/NOT it is a condition. We approximate by
   peeking the token right after '('. *)
and is_cond_paren cur =
  match cur.toks with
  | T_lparen :: T_kw "SELECT" :: _ -> false
  | T_lparen :: _ -> (
    (* scan for the matching close; if we meet AND/OR/NOT at depth 1 it is a
       condition, otherwise an operand comparison follows and we are a
       condition too only if it contains a comparison... simplest: treat as
       condition unless it starts a subquery. *)
    true)
  | _ -> false

and parse_operand cur : operand =
  let left = parse_operand_atom cur in
  (* arithmetic chains: a + b - c (only over column/literal atoms) *)
  let rec chain left =
    match peek cur with
    | T_op ("+" | "-") ->
      let op = (match peek cur with T_op o -> o | _ -> assert false) in
      advance cur;
      let right = parse_operand_atom cur in
      let e l r =
        O_arith ((if String.equal op "+" then Expr.Add else Expr.Sub), l, r)
      in
      chain (e left right)
    | _ -> left
  in
  chain left

and parse_operand_atom cur : operand =
  match peek cur with
  | T_ident c -> advance cur; O_col c
  | T_int n -> advance cur; O_lit (Value.Int n)
  | T_float f -> advance cur; O_lit (Value.Float f)
  | T_string s -> advance cur; O_lit (Value.Text s)
  | T_kw "NULL" -> advance cur; O_lit Value.Null
  | T_lparen -> (
    advance cur;
    match peek cur with
    | T_kw "SELECT" ->
      advance cur;
      expect cur (T_kw "COUNT") "COUNT";
      expect cur T_lparen "(";
      expect cur T_star "*";
      expect cur T_rparen ")";
      expect_kw cur "FROM";
      let table = ident cur in
      let alias = match peek cur with T_ident a -> advance cur; Some a | _ -> None in
      let conds =
        if peek_is cur (T_kw "WHERE") then (advance cur; conjuncts_of (parse_cond cur)) else []
      in
      expect cur T_rparen ")";
      O_subquery { sq_table = table; sq_alias = alias; sq_where = conds }
    | _ -> fail "only scalar COUNT(*) subqueries are supported in operands")
  | _ -> fail "expected operand"

and conjuncts_of = function
  | C_and (a, b) -> conjuncts_of a @ conjuncts_of b
  | c -> [ c ]

(* ------------------------------------------------------------------ *)
(* Compilation to algebra *)

let rec operand_expr = function
  | O_col c -> Expr.Col c
  | O_lit v -> Expr.Const v
  | O_subquery _ -> fail "subquery in unsupported position"
  | O_arith (op, a, b) -> Expr.Arith (op, operand_expr a, operand_expr b)

let rec cond_expr = function
  | C_cmp (op, a, b) -> Expr.Cmp (op, operand_expr a, operand_expr b)
  | C_and (a, b) -> Expr.And (cond_expr a, cond_expr b)
  | C_or (a, b) -> Expr.Or (cond_expr a, cond_expr b)
  | C_not a -> Expr.Not (cond_expr a)
  | C_in (a, vs) -> Expr.in_list (operand_expr a) vs
  | C_between (a, lo, hi) -> Expr.between (operand_expr a) lo hi
  | C_like (a, p) -> Expr.Like (operand_expr a, p)
  | C_is_null (a, positive) ->
    let e = Expr.Is_null (operand_expr a) in
    if positive then e else Expr.Not e

let rec operand_has_subquery = function
  | O_subquery _ -> true
  | O_col _ | O_lit _ -> false
  | O_arith (_, a, b) -> operand_has_subquery a || operand_has_subquery b

let rec cond_has_subquery = function
  | C_cmp (_, a, b) -> operand_has_subquery a || operand_has_subquery b
  | C_and (a, b) | C_or (a, b) -> cond_has_subquery a || cond_has_subquery b
  | C_not a -> cond_has_subquery a
  | C_in (a, _) | C_between (a, _, _) | C_like (a, _) | C_is_null (a, _) ->
    operand_has_subquery a

(* Column scope tests by alias prefix or plain membership. *)
let belongs_to_aliases aliases col =
  match String.index_opt col '.' with
  | Some i -> List.mem (String.sub col 0 i) aliases
  | None -> false

(* Decorrelate one scalar COUNT subquery: find the single correlation
   equality (outer.col = inner.col), return (outer_key, inner_key, residual
   conjuncts). *)
let split_correlation ~outer_aliases ~inner_alias sq =
  let inner_aliases = [ Option.value ~default:sq.sq_table inner_alias ] in
  let correlation = ref None in
  let residual = ref [] in
  List.iter
    (fun c ->
      match c with
      | C_cmp (Expr.Eq, O_col a, O_col b)
        when belongs_to_aliases outer_aliases a && belongs_to_aliases inner_aliases b -> (
        match !correlation with
        | None -> correlation := Some (a, b)
        | Some _ -> fail "subquery with more than one correlation equality")
      | C_cmp (Expr.Eq, O_col b, O_col a)
        when belongs_to_aliases outer_aliases a && belongs_to_aliases inner_aliases b -> (
        match !correlation with
        | None -> correlation := Some (a, b)
        | Some _ -> fail "subquery with more than one correlation equality")
      | c ->
        if cond_has_subquery c then fail "nested subqueries are not supported";
        (* reject any other reference to outer columns *)
        residual := c :: !residual)
    sq.sq_where;
  match !correlation with
  | None -> fail "subquery must be correlated through one equality"
  | Some (outer_col, inner_col) -> (outer_col, inner_col, List.rev !residual)

let compile (q : query) : Algebra.t =
  let outer_aliases =
    List.map (fun (t, a) -> Option.value ~default:t a) q.from
    @ List.map (fun (t, a, _) -> Option.value ~default:t a) q.joins
  in
  (* FROM: product of scans *)
  let scans =
    List.map
      (fun (t, a) ->
        let alias = match a with Some a -> Some a | None -> if List.length q.from > 1 then Some t else None in
        Algebra.Scan { table = t; alias })
      q.from
  in
  let base =
    match scans with
    | [] -> fail "empty FROM"
    | s :: rest -> List.fold_left (fun acc r -> Algebra.Product (acc, r)) s rest
  in
  let base =
    List.fold_left
      (fun acc (table, alias, c) ->
        let alias = match alias with Some a -> Some a | None -> Some table in
        Algebra.Join (cond_expr c, acc, Algebra.Scan { table; alias }))
      base q.joins
  in
  (* WHERE: separate subquery comparisons from plain predicates. *)
  let plain = ref [] in
  let subq_preds = ref [] in
  (match q.where with
  | None -> ()
  | Some w ->
    List.iter
      (fun c -> if cond_has_subquery c then subq_preds := c :: !subq_preds else plain := c :: !plain)
      (conjuncts_of w));
  let plan = ref base in
  (match !plain with
  | [] -> ()
  | _ :: _ -> plan := Algebra.Select (Expr.conj (List.map cond_expr (List.rev !plain)), !plan));
  (* Decorrelate: each subquery becomes a Count_join over the current plan,
     and the comparison becomes a plain predicate over the appended column. *)
  let fresh =
    let n = ref 0 in
    fun () -> incr n; Printf.sprintf "subq_%d" !n
  in
  let attach_subquery sq =
    let outer_col, inner_col, residual = split_correlation ~outer_aliases ~inner_alias:sq.sq_alias sq in
    let inner_alias = Option.value ~default:sq.sq_table sq.sq_alias in
    let sub_scan = Algebra.Scan { table = sq.sq_table; alias = Some inner_alias } in
    let sub =
      match residual with
      | [] -> sub_scan
      | cs -> Algebra.Select (Expr.conj (List.map cond_expr cs), sub_scan)
    in
    let name = fresh () in
    plan := Algebra.Count_join { child = !plan; key = outer_col; sub; sub_key = inner_col; as_name = name };
    Expr.Col name
  in
  let rewrite_operand = function
    | O_subquery sq -> attach_subquery sq
    | o -> operand_expr o
  in
  List.iter
    (fun c ->
      match c with
      | C_cmp (op, a, b) ->
        let ea = rewrite_operand a in
        let eb = rewrite_operand b in
        plan := Algebra.Select (Expr.Cmp (op, ea, eb), !plan)
      | _ -> fail "subquery comparisons must be top-level conjuncts")
    (List.rev !subq_preds);
  (* SELECT list / GROUP BY *)
  let has_agg =
    match q.select with
    | None -> false
    | Some items -> List.exists (function S_agg _ -> true | S_col _ -> false) items
  in
  let grouped_by = match q.group_by with [] -> false | _ :: _ -> true in
  (match q.having, has_agg, grouped_by with
  | Some _, false, false -> fail "HAVING requires GROUP BY or aggregates"
  | _ -> ());
  let plan =
    if has_agg || grouped_by then begin
      let items = Option.value ~default:[] q.select in
      let keys =
        if grouped_by then q.group_by
        else
          List.filter_map (function S_col c -> Some c | S_agg _ -> None) items
      in
      let aggs =
        List.filter_map
          (function S_agg (agg, name) -> Some { Algebra.agg; as_name = name } | S_col _ -> None)
          items
      in
      let grouped = Algebra.Group_by { keys; aggs; child = !plan } in
      match q.having with
      | None -> grouped
      | Some c -> Algebra.Select (cond_expr c, grouped)
    end
    else
      match q.select with
      | None -> !plan
      | Some items ->
        let cols = List.filter_map (function S_col c -> Some c | S_agg _ -> None) items in
        Algebra.Project (cols, !plan)
  in
  let plan = if q.distinct then Algebra.Distinct plan else plan in
  match q.order_by, q.limit_n with
  | [], None -> plan
  | keys, limit -> Algebra.Order_by { keys; limit; child = plan }

let parse src =
  let cur = { toks = lex src } in
  let q = parse_query cur in
  (match peek cur with T_eof -> () | _ -> fail "trailing tokens after query");
  Optimizer.optimize (compile q)
