(* synth-active: the acquisition loop ([Loop.run] with its default
   config) on the synthetic ground-truth simulator of
   [cbmf_repro budget].

   Untraced repetitions call [Loop.run].  The traced repetition replays
   it through the public calls it is made of — seed grid, cold EM,
   update, then per round candidates, acquisition, simulation, stream
   and rank-one appends, with a warm EM resync and update rebuild every
   [resync_every] rounds — one span per call; an oracle checks that the
   replay's coefficients and NLML trail hash equal to [Loop.run]'s.
   The loop never runs the standardize + initializer front end, so the
   traced run times it out of band on the loop's final dataset. *)

open Cbmf_model
open Cbmf_core
open Cbmf_active
module Synthetic = Cbmf_circuit.Synthetic

let spec ~smoke ~seed =
  if smoke then
    { Synthetic.default_spec with
      Synthetic.k = 4; m = 11; d = 7; active_per_state = 4; rho = 0.9;
      noise_sigma = 0.1; seed }
  else
    { Synthetic.default_spec with
      Synthetic.k = 32; m = 21; d = 10; active_per_state = 4; rho = 0.9;
      noise_sigma = 0.1; seed }

let config ~smoke =
  if smoke then
    { Loop.default_config with
      Loop.rounds = 4; pool_size = 8; resync_every = 2;
      em = { Loop.default_config.Loop.em with Em.max_iter = 3 } }
  else Loop.default_config

(* The cold EM start [cbmf_repro budget] uses. *)
let prior0 (s : Synthetic.spec) =
  Prior.create
    ~lambda:(Array.make s.Synthetic.m 1.0)
    ~r:(Prior.r_of_r0 ~n_states:s.Synthetic.k ~r0:0.5)
    ~sigma0:(Float.max s.Synthetic.noise_sigma 0.05)

let hash ~coeffs ~nlmls =
  let open Cbmf_testkit.Seeded in
  hash_floats_acc (hash_floats_acc fnv_offset coeffs.Cbmf_linalg.Mat.data) nlmls

type replayed = {
  coeffs : Cbmf_linalg.Mat.t;
  nlmls : float array;  (** streaming NLML after every round *)
  data : Dataset.t;
  iterations : int;
  recoveries : int;
}

(* [Loop.run] for a config without budget cap or checkpoints, as
   loop.ml runs it. *)
let replay ~(config : Loop.config) ~(sim : Sim.t) ~prior0 =
  let sim =
    { sim with
      Sim.simulate =
        (fun ~state ~index x ->
          Span.with_span "sim.simulate" (fun () -> sim.Sim.simulate ~state ~index x)) }
  in
  let k = sim.Sim.n_states in
  let stream =
    Stream.create
      (Span.with_span "loop.seed_dataset" (fun () ->
           Sim.seed_dataset sim ~n0:config.Loop.n0))
  in
  let posterior = Fits.timed_posterior () in
  let iterations = ref 0 and recoveries = ref 0 in
  let fit ?init_hypers kind =
    let prior, post, tr =
      Span.with_span ~attr:(fun _ -> kind) "em.run" (fun () ->
          Em.run ~config:config.Loop.em ~posterior ?init_hypers
            (Stream.dataset stream) prior0)
    in
    iterations := !iterations + tr.Em.iterations;
    recoveries := !recoveries + tr.Em.recoveries;
    (* Loop's filter: EM's active set restricted to λ > 0. *)
    let active =
      Array.of_seq
        (Seq.filter
           (fun j -> prior.Prior.lambda.(j) > 0.0)
           (Array.to_seq post.Posterior.active))
    in
    ( prior,
      Span.with_span "update.create" (fun () ->
          Update.create (Stream.dataset stream) prior ~active) )
  in
  let prior, upd = fit "cold" in
  let prior = ref prior and upd = ref upd and nlmls = ref [] in
  for round = 1 to config.Loop.rounds do
    let xs, rows =
      Span.with_span "sim.candidates" (fun () ->
          let xs = sim.Sim.candidates ~round ~n:config.Loop.pool_size in
          (xs, Array.map sim.Sim.basis_row xs))
    in
    let choice, _ =
      Span.with_span "acquire.select" (fun () ->
          Acquire.select !upd ~policy:config.Loop.policy ~round
            ~cost:sim.Sim.cost ~rows)
    in
    let index = Stream.n_per_state stream in
    let chosen = Array.init k (fun s -> rows.(choice.(s))) in
    let ys =
      Array.init k (fun s -> sim.Sim.simulate ~state:s ~index xs.(choice.(s)))
    in
    Span.with_span "stream.append" (fun () ->
        Stream.append stream ~rows:chosen ~ys);
    Span.with_span "update.append_round" (fun () ->
        Update.append_round !upd ~rows:chosen ~ys);
    if config.Loop.resync_every > 0 && round mod config.Loop.resync_every = 0
    then begin
      let p, u = fit ~init_hypers:!prior "warm" in
      prior := p;
      upd := u
    end;
    nlmls := Span.with_span "update.nlml" (fun () -> Update.nlml !upd) :: !nlmls
  done;
  {
    coeffs = Update.coefficients !upd;
    nlmls = Array.of_list (List.rev !nlmls);
    data = Stream.dataset stream;
    iterations = !iterations;
    recoveries = !recoveries;
  }

let run ~smoke ~seed ~seconds ~trace =
  let spec = spec ~smoke ~seed and config = config ~smoke in
  let build () =
    Span.with_span "inputs.generate" (fun () ->
        let truth = Synthetic.truth spec in
        (truth, Synthetic.test_dataset truth ~n_per_state:(if smoke then 25 else 250)))
  in
  let setup_s, (truth, test) = Report.setups build in
  let sim = Sim.of_synthetic truth and prior0 = prior0 spec in
  let first = ref None in
  let keep (r : Loop.result) =
    if Option.is_none !first then first := Some r;
    hash ~coeffs:r.Loop.coeffs ~nlmls:(Array.map (fun l -> l.Loop.nlml) r.Loop.logs)
  in
  let runs =
    Report.reps ~seconds ~min_reps:(if smoke then 2 else 3) ~keep (fun () ->
        Loop.run ~config ~sim ~prior0 ())
  in
  let res = Option.get !first in
  let times = List.map fst runs and hashes = List.map snd runs in
  let loop_s = Report.median times in
  let err = Metrics.coeffs_error_pooled ~coeffs:res.Loop.coeffs test in
  let floor = Metrics.coeffs_error_pooled ~coeffs:truth.Synthetic.coeffs test in
  let e2e = Report.repeated_op_metrics ~setup_s ~times ~heldout_err:(err /. floor) in
  let extra =
    [ ("loop_s", loop_s, "s");
      ("loop_s_min", List.fold_left Float.min infinity times, "s");
      ("loop_s_max", List.fold_left Float.max 0.0 times, "s");
      ("loop_rel_err", err, "ratio");
      ("truth_rel_err", floor, "ratio");
      ("loop.em_runs", float_of_int res.Loop.em_runs, "count");
      ("loop.simulated", float_of_int res.Loop.simulated, "count") ]
  in
  let h0 = List.hd hashes in
  let oracles =
    [ ("loop-hash-stable", List.for_all (Int64.equal h0) hashes);
      ("heldout-err-finite", Float.is_finite err && err < 1.0) ]
  in
  let layers, trace_extra, trace_oracles =
    if not trace then ([], [], [])
    else begin
      Span.reset ();
      Span.enabled := true;
      ignore (Span.with_span "setup" build);
      let r = Span.with_span "rep" (fun () -> replay ~config ~sim ~prior0) in
      Span.with_span "out-of-band" (fun () ->
          let _, std =
            Span.with_span "standardize.fit" (fun () -> Standardize.fit r.data)
          in
          ignore
            (Span.with_span "init.run" (fun () ->
                 Init.run ~config:Fits.synth_config.Cbmf.init std)));
      Span.enabled := false;
      let rep = List.hd (Span.named "rep") in
      let em_of kind =
        List.fold_left
          (fun acc s -> if s.Span.attr = kind then acc +. Span.duration s else acc)
          0.0 (Span.named "em.run")
      in
      let per_round name scale =
        scale *. Report.median (List.map Span.duration (Span.named name))
      in
      let k = float_of_int sim.Sim.n_states in
      let model_s =
        Span.total "em.run" +. Span.total "update.create"
        +. Span.total "update.append_round" +. Span.total "update.nlml"
        +. Span.total "acquire.select"
      in
      ( Report.layer_metrics ~coverage:(Span.coverage rep)
          ~overhead_pct:
            (Report.overhead_pct ~traced_s:(Span.duration rep) ~untraced_s:loop_s)
          ~iterations:r.iterations ~recoveries:r.recoveries,
        [ ("sim.calls", float_of_int (Span.count "sim.simulate"), "count");
          ("sim.simulate_s", Span.total "sim.simulate", "s");
          ("em.cold_run_s", em_of "cold", "s");
          ("em.warm_run_s", em_of "warm", "s");
          ("update.create_s", Span.total "update.create", "s");
          ("update.append_us", per_round "update.append_round" (1e6 /. k), "us");
          ("acquire.select_ms", per_round "acquire.select" 1e3, "ms");
          ("loop.model_share", model_s /. Span.duration rep, "ratio") ],
        [ ("replay-hash-equal", Int64.equal (hash ~coeffs:r.coeffs ~nlmls:r.nlmls) h0);
          ("sim-calls-match", Span.count "sim.simulate" = res.Loop.simulated);
          ("spans-nest", Span.well_nested ()) ] )
    end
  in
  {
    Report.e2e;
    layers;
    extra = extra @ trace_extra;
    attempted = List.length runs + (if trace then 1 else 0);
    failed =
      List.length (List.filter (fun h -> not (Int64.equal h h0)) hashes)
      + List.length (List.filter (fun (_, ok) -> not ok) trace_oracles);
    oracles = oracles @ trace_oracles;
    reps = List.length runs;
  }
