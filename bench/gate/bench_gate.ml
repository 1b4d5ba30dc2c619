(* Perf-regression gate: checks every BENCH_*.json in the working
   directory against the floors declared in gate.ml, taking each file's
   committed baseline from `git show HEAD:<file>`. Prints one line per
   check and exits 1 on the first failure. Run from the repository root:

     dune exec bench/gate/bench_gate.exe *)

let read f =
  if Sys.file_exists f then Some (In_channel.with_open_bin f In_channel.input_all) else None

let committed f =
  let cmd = Printf.sprintf "git show HEAD:%s 2>/dev/null" (Filename.quote f) in
  let ic = Unix.open_process_in cmd in
  let text = In_channel.input_all ic in
  match Unix.close_process_in ic with Unix.WEXITED 0 -> Some text | _ -> None

let () =
  let files = List.sort String.compare (Array.to_list (Sys.readdir ".")) in
  let say line = print_endline ("bench_gate: " ^ line) in
  match Gate.run ~say ~files ~read ~committed with
  | Ok () -> say "OK"
  | Error { Gate.check; reason } ->
    prerr_endline (Printf.sprintf "bench_gate: FAIL: %s: %s" check reason);
    exit 1
