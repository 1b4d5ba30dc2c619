open Factorgraph

let n_labels = Array.length Labels.all

let model_of_doc crf ~doc =
  let first, stop = Crf.doc_token_range crf doc in
  let params = Crf.params crf in
  let label_str = Array.map Labels.to_string Labels.all in
  (* Feature names involve string formatting; precompute every potential
     once so inference and sampling run on plain float tables. *)
  let bias = Array.map (fun l -> Params.get params (Templates.bias_feature l)) label_str in
  let node_table =
    Array.init (stop - first) (fun i ->
        let s = Crf.token_string crf (first + i) in
        Array.init n_labels (fun l ->
            Params.get params (Templates.emission_feature s label_str.(l))
            +. Params.get params (Templates.shape_feature s label_str.(l))
            +. bias.(l)))
  in
  let edge_table =
    Array.init n_labels (fun l ->
        Array.init n_labels (fun l' ->
            Params.get params (Templates.transition_feature label_str.(l) label_str.(l'))))
  in
  { Chain_fb.length = stop - first; labels = n_labels;
    node = (fun i l -> node_table.(i).(l));
    edge = (fun _ l l' -> edge_table.(l).(l')) }

let marginals crf ~doc = Chain_fb.marginals (model_of_doc crf ~doc)
