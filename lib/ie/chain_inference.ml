open Factorgraph

let n_labels = Array.length Labels.all

let model_of_doc crf ~doc =
  let first, stop = Crf.doc_token_range crf doc in
  (* Snapshot every potential once, so inference and sampling run on
     plain float tables. *)
  let node_table =
    Array.init (stop - first) (fun i ->
        Array.init n_labels (fun l -> Crf.node_weight crf ~pos:(first + i) l))
  in
  let edge_table =
    Array.init n_labels (fun l -> Array.init n_labels (fun l' -> Crf.transition_weight crf l l'))
  in
  { Chain_fb.length = stop - first; labels = n_labels;
    node = (fun i l -> node_table.(i).(l));
    edge = (fun _ l l' -> edge_table.(l).(l')) }

let marginals crf ~doc = Chain_fb.marginals (model_of_doc crf ~doc)
