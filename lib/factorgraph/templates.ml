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

type ids = {
  params : Params.t;
  label_names : string array;
  bias : int array;
  trans : int array;
  skip_same : int;
  skip_diff : int;
}

let resolve params label_domain =
  let k = Domain.size label_domain in
  let label_names = Array.init k (Domain.value label_domain) in
  let intern = Params.intern params in
  { params;
    label_names;
    bias = Array.map (fun l -> intern (bias_feature l)) label_names;
    trans =
      Array.init (k * k) (fun i ->
          intern (transition_feature label_names.(i / k) label_names.(i mod k)));
    skip_same = intern (skip_feature ~same:true);
    skip_diff = intern (skip_feature ~same:false) }

let emission_ids ids s =
  Array.map (fun l -> Params.intern ids.params (emission_feature s l)) ids.label_names

let shape_ids ids s =
  Array.map (fun l -> Params.intern ids.params (shape_feature s l)) ids.label_names

let unroll_chain ?(skip_edges = false) ~params ~label_domain ~tokens () =
  let g = Graph.create () in
  let n = Array.length tokens in
  let ids = resolve params label_domain in
  let k = Array.length ids.label_names in
  let w id = (Params.weights params).(id) in
  let labels = Array.init n (fun _ -> Graph.add_variable g label_domain) in
  let label a i = Assignment.get a labels.(i) in
  for i = 0 to n - 1 do
    (* Emission: observed string (and its shape) vs hidden label. *)
    let emit = emission_ids ids tokens.(i) and shape = shape_ids ids tokens.(i) in
    ignore
      (Graph.add_factor g ~scope:[| labels.(i) |] (fun a ->
           let l = label a i in
           w emit.(l) +. w shape.(l)));
    (* Bias over each label. *)
    ignore (Graph.add_factor g ~scope:[| labels.(i) |] (fun a -> w ids.bias.(label a i)));
    (* First-order transition. *)
    if i + 1 < n then
      ignore
        (Graph.add_factor g ~scope:[| labels.(i); labels.(i + 1) |] (fun a ->
             w ids.trans.((label a i * k) + label a (i + 1))))
  done;
  if skip_edges then
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        if tokens.(i) = tokens.(j) then
          ignore
            (Graph.add_factor g ~scope:[| labels.(i); labels.(j) |] (fun a ->
                 w (if label a i = label a j then ids.skip_same else ids.skip_diff)))
      done
    done;
  { graph = g; labels; assignment = Graph.new_assignment g }
