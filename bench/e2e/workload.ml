(* What every workload is given and what it hands back. *)

type config = {
  seed : int;
  seconds : int;  (** scales the timed work; see README.md "Run length" *)
  smoke : bool;  (** tiny sizes for the self-test under dune runtest *)
  traced : bool;  (** Obs metrics, trace events, spans and the commit timer on *)
}

type result = {
  e2e : (string * float) list;
  layers : (string * float) list;  (** meaningful in the traced pass only *)
  attempted : int;
  failed : int;
  digest : string;  (** every answer of the run, bit for bit (Measure.digest) *)
  timed_ns : int;  (** wall time of the timed phase *)
  params : (string * string) list;  (** the workload's sizes, for provenance *)
}

(* [n] independent seeds for corpus and chains, all drawn from --seed. *)
let seeds cfg n =
  let rng = Mcmc.Rng.create cfg.seed in
  Array.init n (fun _ -> 1 + Mcmc.Rng.int rng 1_000_000_000)

(* One set-up's breakdown, in ns. [chain] is chain construction plus any
   burn-in walk. *)
type phases = { corpus : int; load : int; crf : int; chain : int }

(* A chain over [docs] as every workload serves it: TOKEN loaded into a
   fresh database, the CRF over it, and the paper's jump function
   reloading its 5-document batch every [thin] proposals (as the
   daemon's chains must for a WAL resume to be sample-path identical),
   burned in for [burn_in] steps. [probe] wraps the proposal in every
   pass, timing it only in the traced one; its counters start after the
   burn-in. *)
type chain = { pdb : Core.Pdb.t; crf : Ie.Crf.t; probe : Measure.probe; phases : phases }

let chain_of_docs ?(skip_edges = true) ~thin ~burn_in ~traced ~chain_seed docs =
  let db, load =
    Measure.timed (fun () ->
        let db = Relational.Database.create () in
        ignore (Ie.Token_table.load db docs : Relational.Table.t);
        db)
  in
  let crf, crf_ns =
    Measure.timed (fun () ->
        Ie.Crf.create ~skip_edges ~params:(Ie.Crf.default_params ()) (Core.World.create db))
  in
  let (pdb, probe), chain =
    Measure.timed (fun () ->
        let rng = Mcmc.Rng.create chain_seed in
        let probe = Measure.probe ~thin ~timing:traced in
        let proposal =
          Measure.wrap probe (Ie.Proposals.batched_flip ~proposals_per_batch:thin ~rng crf)
        in
        let pdb = Core.Pdb.create ~world:(Ie.Crf.world crf) ~proposal ~rng in
        Core.Pdb.walk pdb ~steps:burn_in;
        (pdb, probe))
  in
  Measure.restart probe;
  { pdb; crf; probe; phases = { corpus = 0; load; crf = crf_ns; chain } }

(* The same over a corpus of [n_tokens] generated from [corpus_seed]. *)
let chain ?skip_edges ~n_tokens ~thin ~burn_in ~traced ~corpus_seed ~chain_seed () =
  let docs, corpus =
    Measure.timed (fun () -> Ie.Corpus.generate_tokens ~seed:corpus_seed ~n_tokens)
  in
  let c = chain_of_docs ?skip_edges ~thin ~burn_in ~traced ~chain_seed docs in
  { c with phases = { c.phases with corpus } }

(* Per-layer numbers of the chains themselves: Δ-score per proposal,
   acceptance, the world write per accepted move, and walk time per
   sample. *)
let chain_layers probes ~samples =
  let obs name = float_of_int (Measure.counter name) in
  let sum f = List.fold_left (fun acc (p : Measure.probe) -> acc + f p) 0 probes in
  [ ("mcmc.propose_ns", obs "mcmc.score_ns" /. Float.max 1. (obs "mcmc.proposals"));
    ("mcmc.accept_rate", obs "mcmc.accepts" /. Float.max 1. (obs "mcmc.proposals"));
    ("core.world.commit_ns", Measure.ratio (sum (fun p -> p.commit_ns)) (sum (fun p -> p.commits)));
    ("core.pdb.walk_ms",
     Measure.to_ms (sum (fun p -> Measure.sum p.walks)) /. float_of_int (max 1 samples)) ]

(* Every set-up of a run, timed whole; setup_s is their median. *)
type setups = { mutable times : int list; mutable phases : phases list }

let setups () = { times = []; phases = [] }

(* [build ()] on a collected heap, recorded in [s]. *)
let setup s ~phases build =
  Gc.full_major ();
  let x, ns = Measure.timed build in
  s.times <- ns :: s.times;
  s.phases <- phases x :: s.phases;
  x

(* Set-ups that only count towards setup_s, built before the [rounds]
   the workload sets up for its timed phase: at least enough for 3 in
   all, and more while they have taken under a second, up to 12. *)
let extra_setups s ~rounds ~phases ~discard build =
  let rec go n spent =
    if n < 12 && (n + rounds < 3 || spent < 1_000_000_000) then begin
      discard (setup s ~phases build);
      go (n + 1) (spent + List.hd s.times)
    end
  in
  go 0 0

(* Allocation and major collections inside timed rounds since
   [start_tracing]. *)
let minor_words = ref 0.
let major_collections = ref 0

(* [f ()] timed on a collected heap, so every round starts from the same
   garbage-collector state. *)
let timed_round f =
  Gc.full_major ();
  let before = Gc.quick_stat () in
  let x = Measure.timed f in
  let after = Gc.quick_stat () in
  minor_words := !minor_words +. after.Gc.minor_words -. before.Gc.minor_words;
  major_collections :=
    !major_collections + after.Gc.major_collections - before.Gc.major_collections;
  x

(* setup_s plus the per-phase medians every workload reports. *)
let setup_metrics s =
  let med l = Measure.to_s (int_of_float (Measure.median_ns l)) in
  let phase f = med (List.map f s.phases) in
  ( ("setup_s", med s.times),
    [ ("setup.corpus_s", phase (fun p -> p.corpus)); ("setup.load_s", phase (fun p -> p.load));
      ("setup.crf_s", phase (fun p -> p.crf)); ("setup.burnin_s", phase (fun p -> p.chain)) ] )

(* Percentiles in ms of per-sample latencies (end-to-end) and of
   registrations (per-layer). *)
let ms v = Array.map (fun x -> x /. 1e6) (Measure.floats v)

let sample_metrics samples =
  let s = ms samples in
  [ ("sample_ms_p50", Measure.median s); ("sample_ms_p99", Measure.percentile 0.99 s) ]

let register_metrics registers =
  let r = ms registers in
  [ ("register_ms_p50", Measure.median r); ("register_ms_p90", Measure.percentile 0.9 r) ]

(* The OCaml runtime's share of the timed rounds. *)
let gc_metrics ~samples =
  [ ("gc.minor_words_per_sample", !minor_words /. float_of_int (max 1 samples));
    ("gc.major_collections", float_of_int !major_collections) ]

(* [f] with a fresh scratch directory under .pdbbench-tmp in the working
   directory (the checkout), removed afterwards even when [f] raises.
   Paths stay relative, so socket paths stay short wherever the checkout
   lives. *)
let tmp_base = ".pdbbench-tmp"

let with_scratch f =
  if not (Sys.file_exists tmp_base) then Sys.mkdir tmp_base 0o700;
  let dir = Filename.temp_dir ~temp_dir:tmp_base "run" "" in
  let remove () =
    Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
    Sys.rmdir dir;
    if Array.length (Sys.readdir tmp_base) = 0 then Sys.rmdir tmp_base
  in
  Fun.protect ~finally:remove (fun () -> f dir)

(* Switch the library's own instrumentation on for the traced pass and
   count the world-delta rows its per-sample trace events carry. *)
let delta_rows = ref 0
let delta_events = ref 0

let start_tracing cfg =
  Measure.reset_spans ();
  Measure.tracing := cfg.traced;
  delta_rows := 0;
  delta_events := 0;
  minor_words := 0.;
  major_collections := 0;
  if cfg.traced then begin
    Obs.Metrics.reset Obs.Metrics.global;
    Obs.Metrics.set_enabled true;
    Obs.Trace.set_enabled true;
    Obs.Trace.set_sink
      (Obs.Trace.Custom
         (fun e ->
           match List.assoc_opt "delta_rows" e.Obs.Trace.args with
           | Some n ->
             delta_rows := !delta_rows + int_of_string n;
             incr delta_events
           | None -> ()))
  end

let stop_tracing () =
  Measure.tracing := false;
  Obs.Metrics.set_enabled false;
  Obs.Trace.set_enabled false;
  Obs.Trace.set_sink Obs.Trace.Null
