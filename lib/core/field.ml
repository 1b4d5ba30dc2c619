type t = { table : string; key : Relational.Value.t; column : string }

let make ~table ~key ~column = { table; key; column }

let pp fmt f =
  Format.fprintf fmt "%s[%s].%s" f.table (Relational.Value.to_string f.key) f.column
