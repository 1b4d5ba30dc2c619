type t = Table.t Str_tbl.t

let create () = Str_tbl.create 8

let add_table db t =
  if Str_tbl.mem db (Table.name t) then
    invalid_arg ("Database.add_table: duplicate table " ^ Table.name t);
  Str_tbl.replace db (Table.name t) t

let create_table db ?pk ~name schema =
  let t = Table.create ?pk ~name schema in
  add_table db t;
  t

let table_opt db name =
  match Str_tbl.find_opt db name with
  | Some t -> Some t
  | None ->
    (* Table names, like all SQL identifiers, are case-insensitive. If
       several stored names fold to the same lowercase form, the winner
       must not depend on Hashtbl iteration order (R8) — collect the
       matches and take the lexicographically least. *)
    let lname = String.lowercase_ascii name in
    let matches =
      Str_tbl.fold
        (fun n t acc ->
          if String.equal (String.lowercase_ascii n) lname then (n, t) :: acc
          else acc)
        db []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    in
    (match matches with (_, t) :: _ -> Some t | [] -> None)

let table db name =
  match table_opt db name with Some t -> t | None -> raise Not_found

(* Name order, not hash order: callers iterate this to checkpoint and to
   snapshot row counts, so the enumeration must be stable across
   processes with different insertion histories (R8). *)
let tables db =
  Str_tbl.fold (fun _ t acc -> t :: acc) db []
  |> List.sort (fun a b -> String.compare (Table.name a) (Table.name b))
