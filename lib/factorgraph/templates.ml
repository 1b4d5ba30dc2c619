type chain = {
  graph : Graph.t;
  labels : Graph.var array;
  assignment : Assignment.t;
}

let emission_feature s l = Printf.sprintf "emit:%s:%s" s l
let transition_feature l1 l2 = Printf.sprintf "trans:%s:%s" l1 l2
let bias_feature l = Printf.sprintf "bias:%s" l
let skip_feature ~same = if same then "skip:same" else "skip:diff"

let word_shape s =
  let buf = Buffer.create 8 in
  String.iter
    (fun c ->
      let k =
        if c >= 'A' && c <= 'Z' then 'X'
        else if c >= 'a' && c <= 'z' then 'x'
        else if c >= '0' && c <= '9' then 'd'
        else '.'
      in
      (* collapse runs *)
      if Buffer.length buf = 0 || Buffer.nth buf (Buffer.length buf - 1) <> k then
        Buffer.add_char buf k)
    s;
  Buffer.contents buf

let shape_feature s l = Printf.sprintf "shape:%s:%s" (word_shape s) l

let unroll_chain ?(skip_edges = false) ~params ~label_domain ~tokens () =
  let g = Graph.create () in
  let n = Array.length tokens in
  let labels = Array.init n (fun _ -> Graph.add_variable g label_domain) in
  let label_of a i = Domain.value label_domain (Assignment.get a labels.(i)) in
  for i = 0 to n - 1 do
    (* Emission: observed string (and its shape) vs hidden label. *)
    let emit_feats a =
      let l = label_of a i in
      [ (emission_feature tokens.(i) l, 1.); (shape_feature tokens.(i) l, 1.) ]
    in
    ignore
      (Graph.add_factor g ~scope:[| labels.(i) |] (fun a ->
           Params.dot params (emit_feats a)));
    (* Bias over each label. *)
    let bias_feats a = [ (bias_feature (label_of a i), 1.) ] in
    ignore
      (Graph.add_factor g ~scope:[| labels.(i) |] (fun a ->
           Params.dot params (bias_feats a)));
    (* First-order transition. *)
    if i + 1 < n then begin
      let trans_feats a = [ (transition_feature (label_of a i) (label_of a (i + 1)), 1.) ] in
      ignore
        (Graph.add_factor g ~scope:[| labels.(i); labels.(i + 1) |]
           (fun a -> Params.dot params (trans_feats a)))
    end
  done;
  if skip_edges then
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        if tokens.(i) = tokens.(j) then begin
          let skip_feats a =
            [ (skip_feature ~same:(label_of a i = label_of a j), 1.) ]
          in
          ignore
            (Graph.add_factor g ~scope:[| labels.(i); labels.(j) |]
               (fun a -> Params.dot params (skip_feats a)))
        end
      done
    done;
  { graph = g; labels; assignment = Graph.new_assignment g }
