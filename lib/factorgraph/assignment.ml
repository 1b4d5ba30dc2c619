type t = int array

let create n = Array.make n 0
let size = Array.length
let get (a : t) i = a.(i)
let set (a : t) i v = a.(i) <- v
let copy = Array.copy

let with_values a changes f =
  let saved = List.map (fun (i, _) -> (i, a.(i))) changes in
  List.iter (fun (i, v) -> a.(i) <- v) changes;
  Fun.protect ~finally:(fun () -> List.iter (fun (i, v) -> a.(i) <- v) saved) f
