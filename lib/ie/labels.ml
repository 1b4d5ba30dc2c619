type entity = Per | Org | Loc | Misc
type t = O | B of entity | I of entity

let entities = [| Per; Org; Loc; Misc |]

let all =
  Array.concat ([| O |] :: Array.to_list (Array.map (fun e -> [| B e; I e |]) entities))

let entity_string = function Per -> "PER" | Org -> "ORG" | Loc -> "LOC" | Misc -> "MISC"

let to_string = function
  | O -> "O"
  | B e -> "B-" ^ entity_string e
  | I e -> "I-" ^ entity_string e

(* Position in {!all}; total, branch-only. *)
let index = function
  | O -> 0
  | B Per -> 1
  | I Per -> 2
  | B Org -> 3
  | I Org -> 4
  | B Loc -> 5
  | I Loc -> 6
  | B Misc -> 7
  | I Misc -> 8

let of_string_opt = function
  | "O" -> Some O
  | s -> (
    if String.length s < 3 then None
    else
      let entity =
        match String.sub s 2 (String.length s - 2) with
        | "PER" -> Some Per
        | "ORG" -> Some Org
        | "LOC" -> Some Loc
        | "MISC" -> Some Misc
        | _ -> None
      in
      (* Return the shared constants from [all] rather than fresh [B e]/
         [I e] blocks: model construction over millions of tokens parses
         one label per row, and the truth/label arrays then all point at
         nine blocks total. *)
      match entity, s.[0], s.[1] with
      | Some e, 'B', '-' -> Some all.(index (B e))
      | Some e, 'I', '-' -> Some all.(index (I e))
      | _ -> None)

let of_string s =
  match of_string_opt s with
  | Some l -> l
  | None -> invalid_arg ("Labels.of_string: " ^ s)

(* One interned id (hence one shared [Value.Text] box) per label: the
   sampler's accepted-flip path writes [value l] into the TOKEN table
   without allocating text (lint rule R7). *)
let interned = Array.map (fun l -> Relational.Intern.intern (to_string l)) all
let value l = Relational.Intern.value interned.(index l)

let domain = Factorgraph.Domain.make (Array.to_list (Array.map to_string all))

let of_index i =
  if i < 0 || i >= Array.length all then invalid_arg "Labels.of_index";
  all.(i)

let valid_transition ~prev l =
  match l with
  | O | B _ -> true
  | I e -> (
    match prev with
    | Some (B e') | Some (I e') -> e = e'
    | Some O | None -> false)

let segments arr =
  let n = Array.length arr in
  let out = ref [] in
  let i = ref 0 in
  while !i < n do
    (match arr.(!i) with
    | O -> incr i
    | B e | I e ->
      (* A stray I opens a mention, leniently. *)
      let start = !i in
      incr i;
      while !i < n && (match arr.(!i) with I e' -> e' = e | O | B _ -> false) do
        incr i
      done;
      out := (start, !i, e) :: !out)
  done;
  List.rev !out
