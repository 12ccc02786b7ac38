open Cbmf_linalg
open Cbmf_model
open Cbmf_core

type config = {
  n0 : int;
  rounds : int;
  pool_size : int;
  policy : Acquire.policy;
  resync_every : int;
  budget : int;
  em : Em.config;
  checkpoints : int array;
}

let default_config =
  {
    n0 = 4;
    rounds = 16;
    pool_size = 16;
    policy = Acquire.Variance;
    resync_every = 4;
    budget = 0;
    em = { Em.default_config with max_iter = 8; tol = 1e-3 };
    checkpoints = [||];
  }

type round_log = {
  round : int;
  n_per_state : int;
  simulated : int;
  max_score : float;
  nlml : float;
  resync : bool;
  seconds : float;
}

type checkpoint = {
  at_samples : int;
  cp_coeffs : Mat.t;
  cp_active : int array;
}

type result = {
  sim_name : string;
  policy : Acquire.policy;
  prior : Prior.t;
  coeffs : Mat.t;
  active : int array;
  data : Dataset.t;
  logs : round_log array;
  checkpoints : checkpoint array;
  simulated : int;
  sim_cost : float;
  em_runs : int;
}

(* The EM's final active set, restricted to strictly positive λ — the
   primal factorization divides by λ, so a zero slipped in by the
   min_active fallback must not reach the updater. *)
let positive_active (prior : Prior.t) (post : Posterior.t) =
  let act =
    Array.of_seq
      (Seq.filter
         (fun j -> prior.Prior.lambda.(j) > 0.0)
         (Array.to_seq post.Posterior.active))
  in
  if Array.length act = 0 then
    invalid_arg "Loop.run: EM left no strictly positive lambda";
  act

let run ?(config = default_config) ~(sim : Sim.t) ~(prior0 : Prior.t) () =
  if config.n0 < 1 then invalid_arg "Loop.run: n0 must be >= 1";
  if config.pool_size < 1 then invalid_arg "Loop.run: pool_size must be >= 1";
  if Prior.n_basis prior0 <> sim.Sim.n_basis then
    invalid_arg "Loop.run: prior/simulator basis mismatch";
  if Prior.n_states prior0 <> sim.Sim.n_states then
    invalid_arg "Loop.run: prior/simulator state-count mismatch";
  let k = sim.Sim.n_states in
  let seed = Sim.seed_dataset sim ~n0:config.n0 in
  let stream = Stream.create seed in
  let simulated = ref (config.n0 * k) in
  let sim_cost = ref 0.0 in
  for s = 0 to k - 1 do
    sim_cost := !sim_cost +. (float_of_int config.n0 *. sim.Sim.cost s)
  done;
  let em_runs = ref 0 in
  let fit ?init_hypers () =
    incr em_runs;
    Em.run ~config:config.em ?init_hypers (Stream.dataset stream) prior0
  in
  let prior, post, _trace = fit () in
  let prior = ref prior in
  let upd = ref (Update.create (Stream.dataset stream) !prior
                   ~active:(positive_active !prior post)) in
  let logs = ref [] and cps = ref [] in
  let take_checkpoint () =
    if Array.mem !simulated config.checkpoints then
      cps :=
        {
          at_samples = !simulated;
          cp_coeffs = Update.coefficients !upd;
          cp_active = Array.copy (Update.active !upd);
        }
        :: !cps
  in
  take_checkpoint ();
  let r = ref 1 in
  let continue_ () =
    !r <= config.rounds
    && (config.budget <= 0 || !simulated + k <= config.budget)
  in
  while continue_ () do
    let t0 = Unix.gettimeofday () in
    let round = !r in
    let xs = sim.Sim.candidates ~round ~n:config.pool_size in
    let rows = Array.map sim.Sim.basis_row xs in
    let choice, score =
      Acquire.select !upd ~policy:config.policy ~round ~cost:sim.Sim.cost
        ~rows
    in
    (* Simulate the winners: per state, the next free noise-stream
       index is the current per-state row count (seed rows used
       0..n0−1), so draws nest as prefixes across budgets. *)
    let idx = Stream.n_per_state stream in
    let chosen_rows = Array.init k (fun s -> rows.(choice.(s))) in
    let ys =
      Array.init k (fun s ->
          sim.Sim.simulate ~state:s ~index:idx xs.(choice.(s)))
    in
    for s = 0 to k - 1 do
      sim_cost := !sim_cost +. sim.Sim.cost s
    done;
    simulated := !simulated + k;
    Stream.append stream ~rows:chosen_rows ~ys;
    Update.append_round !upd ~rows:chosen_rows ~ys;
    (* Periodic resync: hyper-parameters have drifted stale, so rerun
       EM warm-started at the current Ω and rebuild the factorization
       on the (possibly changed) active set. *)
    let resync = config.resync_every > 0 && round mod config.resync_every = 0 in
    if resync then begin
      let prior', post', _ = fit ~init_hypers:!prior () in
      prior := prior';
      upd :=
        Update.create (Stream.dataset stream) !prior
          ~active:(positive_active !prior post')
    end;
    let max_score = Array.fold_left Float.max 0.0 score in
    logs :=
      {
        round;
        n_per_state = Stream.n_per_state stream;
        simulated = !simulated;
        max_score;
        nlml = Update.nlml !upd;
        resync;
        seconds = Unix.gettimeofday () -. t0;
      }
      :: !logs;
    take_checkpoint ();
    incr r
  done;
  {
    sim_name = sim.Sim.name;
    policy = config.policy;
    prior = !prior;
    coeffs = Update.coefficients !upd;
    active = Array.copy (Update.active !upd);
    data = Stream.dataset stream;
    logs = Array.of_list (List.rev !logs);
    checkpoints = Array.of_list (List.rev !cps);
    simulated = !simulated;
    sim_cost = !sim_cost;
    em_runs = !em_runs;
  }
