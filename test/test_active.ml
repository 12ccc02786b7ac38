(* Active-learning subsystem (lib/active): Woodbury rank-one parity
   against the from-scratch [`Primal] posterior over random shapes
   (including a = 1 and the aK ≷ NK crossover), incremental dataset
   caches bitwise-equal to a rebuild, EM warm-start plumbing,
   acquisition policy determinism, per-sample simulator nesting and
   the full loop's budget accounting / prefix / domain invariants. *)

open Cbmf_linalg
open Cbmf_model
open Helpers
module Pool = Cbmf_parallel.Pool
module Syn = Cbmf_circuit.Synthetic
module Update = Cbmf_active.Update
module Acquire = Cbmf_active.Acquire
module Stream = Cbmf_active.Stream
module Sim = Cbmf_active.Sim
module Loop = Cbmf_active.Loop

(* Same construction as the posterior oracle: random dense design,
   random all-positive hypers. *)
let build_case ~k ~n ~m ~seed =
  let rng = Cbmf_prob.Rng.create seed in
  let design =
    Array.init k (fun _ ->
        Mat.init n m (fun _ _ -> Cbmf_prob.Rng.gaussian rng))
  in
  let response = Array.init k (fun _ -> Cbmf_prob.Rng.gaussian_vector rng n) in
  let d = Dataset.create ~design ~response in
  let lambda = Array.init m (fun _ -> 0.05 +. Cbmf_prob.Rng.float rng) in
  let r0 = 0.9 *. Cbmf_prob.Rng.float rng in
  let sigma0 = 0.5 +. Cbmf_prob.Rng.float rng in
  let prior =
    Cbmf_core.Prior.create ~lambda
      ~r:(Cbmf_core.Prior.r_of_r0 ~n_states:k ~r0)
      ~sigma0
  in
  (d, prior)

let close ~tol reference delta = delta <= tol *. (1.0 +. reference)

(* {1 Satellite 1: incremental dataset caches} *)

(* Growing [base] by append must give exactly the rows of a
   from-scratch dataset, and caches (norms, Bᵀy) bitwise identical to
   its — even when [base]'s own caches were warm before the append. *)
let prop_append_cache_parity (k, n0, m, seed) =
  let extra = 3 in
  let full, _ = build_case ~k ~n:(n0 + extra) ~m ~seed in
  let base = Dataset.truncate_samples full ~n:n0 in
  Dataset.warm_caches base;
  let tail_design =
    Array.init k (fun s ->
        let d = Dataset.state_design full s in
        Mat.init extra m (fun i j -> Mat.get d (n0 + i) j))
  in
  let tail_response =
    Array.init k (fun s ->
        let y = Dataset.state_response full s in
        Array.init extra (fun i -> Vec.get y (n0 + i)))
  in
  let grown = Dataset.append_rows base ~design:tail_design ~response:tail_response in
  Dataset.warm_caches full;
  let ok = ref true in
  for s = 0 to k - 1 do
    let bits v = hash_floats v in
    ok :=
      !ok
      && bits (Dataset.column_norms grown s) = bits (Dataset.column_norms full s);
    ok := !ok && bits (Dataset.bty grown s) = bits (Dataset.bty full s);
    (* the rows themselves must be the full dataset's rows, exactly *)
    ok :=
      !ok
      && (Dataset.state_design grown s).Mat.data
         = (Dataset.state_design full s).Mat.data
      && Dataset.state_response grown s = Dataset.state_response full s
  done;
  !ok

let gen_grow =
  QCheck2.Gen.(
    quad (int_range 1 4) (int_range 1 4) (int_range 2 8) (int_range 0 100_000))

let test_append_row_single () =
  let full, _ = build_case ~k:2 ~n:5 ~m:3 ~seed:7 in
  let base = Dataset.truncate_samples full ~n:4 in
  let rows =
    Array.init 2 (fun s -> Mat.row (Dataset.state_design full s) 4)
  in
  let ys = Array.init 2 (fun s -> Vec.get (Dataset.state_response full s) 4) in
  let grown = Dataset.append_row base ~rows ~ys in
  check_int "n_samples" 5 grown.Dataset.n_samples;
  Array.iteri
    (fun s _ ->
      check_true "rows equal"
        ((Dataset.state_design grown s).Mat.data
        = (Dataset.state_design full s).Mat.data))
    rows

let test_append_shape_mismatch () =
  let full, _ = build_case ~k:2 ~n:4 ~m:3 ~seed:9 in
  check_raises_invalid "wrong state count" (fun () ->
      Dataset.append_row full
        ~rows:[| Vec.create 3 |]
        ~ys:[| 0.0 |]);
  check_raises_invalid "wrong row width" (fun () ->
      Dataset.append_row full
        ~rows:[| Vec.create 4; Vec.create 4 |]
        ~ys:[| 0.0; 0.0 |])

(* {1 Tentpole: Woodbury rank-one parity} *)

(* Seed an updater on a truncated dataset, stream the remaining rows in
   one at a time, and demand agreement with the from-scratch [`Primal]
   posterior on the grown dataset: μ, NLML and predictive variance all
   ≤ 1e-8.  n0 runs down to 1 and a = m up to 8, so the aK > NK
   crossover (more unknowns than samples at seed time) is exercised. *)
let woodbury_parity ~active (k, n0, m, seed) =
  let extra = 5 in
  let n = n0 + extra in
  let full, prior = build_case ~k ~n ~m ~seed in
  let base = Dataset.truncate_samples full ~n:n0 in
  let upd = Update.create base prior ~active in
  for i = n0 to n - 1 do
    for s = 0 to k - 1 do
      Update.append upd ~state:s
        ~row:(Mat.row (Dataset.state_design full s) i)
        ~y:(Vec.get (Dataset.state_response full s) i)
    done
  done;
  let reference =
    Cbmf_core.Posterior.compute ~need_sigma:false ~path:`Primal full prior
      ~active
  in
  let tol = 1e-8 in
  let mu_ok =
    close ~tol
      (Mat.max_abs reference.Cbmf_core.Posterior.mu)
      (Mat.max_abs (Mat.sub reference.Cbmf_core.Posterior.mu (Update.mean upd)))
  in
  let nlml_ok =
    close ~tol
      (abs_float reference.Cbmf_core.Posterior.nlml)
      (abs_float (reference.Cbmf_core.Posterior.nlml -. Update.nlml upd))
  in
  let rng = Cbmf_prob.Rng.create (seed + 7919) in
  let var_ok = ref true in
  for _ = 1 to 3 do
    let b = Array.init m (fun _ -> Cbmf_prob.Rng.gaussian rng) in
    for s = 0 to k - 1 do
      let _, v_ref = reference.Cbmf_core.Posterior.predictive ~state:s b in
      let v = Update.variance upd ~state:s b in
      var_ok := !var_ok && close ~tol (abs_float v_ref) (abs_float (v_ref -. v))
    done
  done;
  mu_ok && nlml_ok && !var_ok && Update.nk upd = n * k
  && Update.appended upd = extra * k

let prop_woodbury_full_active (k, n0, m, seed) =
  woodbury_parity ~active:(Array.init m Fun.id) (k, n0, m, seed)

let prop_woodbury_sparse_active (k, n0, m, seed) =
  let active = Array.init ((m + 1) / 2) (fun i -> 2 * i) in
  woodbury_parity ~active (k, n0, m, seed)

let prop_woodbury_single_active (k, n0, _m, seed) =
  woodbury_parity ~active:[| 0 |] (k, n0, 2, seed)

(* Ragged appends (states grown unevenly, any order): P is a sum of
   rank-one terms, so the final posterior must not depend on the append
   order beyond round-off. *)
let test_ragged_order_invariance () =
  let full, prior = build_case ~k:3 ~n:6 ~m:5 ~seed:42 in
  let base = Dataset.truncate_samples full ~n:3 in
  let active = Array.init 5 Fun.id in
  let row s i = Mat.row (Dataset.state_design full s) i in
  let y s i = Vec.get (Dataset.state_response full s) i in
  let samples = [ (0, 3); (0, 4); (2, 3); (0, 5); (2, 4) ] in
  let run order =
    let upd = Update.create base prior ~active in
    List.iter
      (fun (s, i) -> Update.append upd ~state:s ~row:(row s i) ~y:(y s i))
      order;
    (Update.mean upd, Update.nlml upd)
  in
  let mu_a, nlml_a = run samples in
  let mu_b, nlml_b = run (List.rev samples) in
  mat_close ~tol:1e-9 "ragged mean order-invariant" mu_a mu_b;
  check_float ~tol:1e-8 "ragged nlml order-invariant" nlml_a nlml_b

let test_update_validation () =
  let d, prior = build_case ~k:2 ~n:4 ~m:3 ~seed:3 in
  let upd = Update.create d prior ~active:[| 0; 2 |] in
  check_raises_invalid "bad state" (fun () ->
      Update.append upd ~state:5 ~row:(Vec.create 3) ~y:0.0);
  check_raises_invalid "bad row width" (fun () ->
      Update.append upd ~state:0 ~row:(Vec.create 7) ~y:0.0);
  let zero_lambda =
    Cbmf_core.Prior.create
      ~lambda:[| 1.0; 0.0; 1.0 |]
      ~r:(Cbmf_core.Prior.identity_r ~n_states:2)
      ~sigma0:0.5
  in
  check_raises_invalid "zero lambda on active set" (fun () ->
      Update.create d zero_lambda ~active:[| 0; 1 |])

(* {1 Satellite 2: EM warm start} *)

let test_em_warm_start () =
  let d, prior0 = build_case ~k:3 ~n:8 ~m:5 ~seed:11 in
  let fitted, _, cold = Cbmf_core.Em.run d prior0 in
  check_true "cold trace" (not cold.Cbmf_core.Em.warm_start);
  let _, _, warm = Cbmf_core.Em.run ~init_hypers:fitted d prior0 in
  check_true "warm trace" warm.Cbmf_core.Em.warm_start;
  (* the warm run starts where the cold run converged, so its first
     E-step can never be worse than the cold run's first *)
  check_true "warm first iterate no worse than cold first"
    (warm.Cbmf_core.Em.nlml_history.(0)
    <= cold.Cbmf_core.Em.nlml_history.(0) +. 1e-6);
  let bad =
    Cbmf_core.Prior.create
      ~lambda:(Array.make 7 1.0)
      ~r:(Cbmf_core.Prior.identity_r ~n_states:3)
      ~sigma0:0.5
  in
  check_raises_invalid "init_hypers shape mismatch" (fun () ->
      Cbmf_core.Em.run ~init_hypers:bad d prior0)

let test_append_round () =
  (* One round = one append per state, in state order: same factor,
     same bits. *)
  let d, prior = build_case ~k:3 ~n:4 ~m:5 ~seed:21 in
  let active = [| 0; 2; 3 |] in
  let by_round = Update.create d prior ~active in
  let by_sample = Update.create d prior ~active in
  let rng = Cbmf_prob.Rng.create 22 in
  for _ = 1 to 2 do
    let rows = Array.init 3 (fun _ -> Cbmf_prob.Rng.gaussian_vector rng 5) in
    let ys = Array.init 3 (fun _ -> Cbmf_prob.Rng.gaussian rng) in
    Update.append_round by_round ~rows ~ys;
    Array.iteri (fun s row -> Update.append by_sample ~state:s ~row ~y:ys.(s)) rows
  done;
  check_bits "mean" (Update.mean by_sample).Mat.data (Update.mean by_round).Mat.data;
  check_float ~tol:0.0 "nlml" (Update.nlml by_sample) (Update.nlml by_round);
  check_int "appended" 6 (Update.appended by_round);
  check_raises_invalid "one row and response per state" (fun () ->
      Update.append_round by_round ~rows:[| Vec.create 5 |] ~ys:[| 0.0 |])

let test_predictive () =
  let d, prior = build_case ~k:2 ~n:5 ~m:4 ~seed:23 in
  let upd = Update.create d prior ~active:[| 1; 3 |] in
  check_int "n_states" 2 (Update.n_states upd);
  check_int "n_basis" 4 (Update.n_basis upd);
  check_true "active" (Update.active upd = [| 1; 3 |]);
  let coeffs = Update.coefficients upd in
  check_bits "coefficients = meanᵀ" (Mat.transpose (Update.mean upd)).Mat.data
    coeffs.Mat.data;
  check_float ~tol:0.0 "zero off the active set" 0.0 (Mat.get coeffs 0 0);
  let b = Vec.of_list [ 0.3; -1.2; 2.0; 0.5 ] in
  for s = 0 to 1 do
    let mean, var = Update.predictive upd ~state:s b in
    check_float ~tol:1e-12 "mean = b · coefficients"
      (Vec.dot b (Mat.row coeffs s))
      mean;
    check_float ~tol:0.0 "variance" (Update.variance upd ~state:s b) var;
    check_true "variance positive" (var > 0.0)
  done

(* {1 Acquisition policies} *)

let acquire_fixture () =
  let d, prior = build_case ~k:2 ~n:6 ~m:4 ~seed:5 in
  let upd = Update.create d prior ~active:(Array.init 4 Fun.id) in
  let rng = Cbmf_prob.Rng.create 77 in
  let rows =
    Array.init 5 (fun i ->
        let scale = if i = 3 then 50.0 else 1.0 in
        Array.init 4 (fun _ -> scale *. Cbmf_prob.Rng.gaussian rng))
  in
  (upd, rows)

let test_acquire_variance_picks_extreme () =
  let upd, rows = acquire_fixture () in
  let choice, score =
    Acquire.select upd ~policy:Acquire.Variance ~round:1
      ~cost:(fun _ -> 1.0)
      ~rows
  in
  Array.iter (fun c -> check_int "extreme row wins" 3 c) choice;
  Array.iter (fun s -> check_true "positive score" (s > 0.0)) score

let test_acquire_round_robin () =
  let upd, rows = acquire_fixture () in
  let pick round =
    let choice, score =
      Acquire.select upd ~policy:Acquire.Round_robin ~round
        ~cost:(fun _ -> 1.0)
        ~rows
    in
    Array.iter (fun s -> check_float ~tol:0.0 "no score" 0.0 s) score;
    check_int "all states same pick" choice.(0) choice.(1);
    choice.(0)
  in
  check_int "round 1" 0 (pick 1);
  check_int "round 2" 1 (pick 2);
  check_int "round 6 wraps" 0 (pick 6)

let test_acquire_select_top_cost () =
  let upd, rows = acquire_fixture () in
  let expensive s = if s = 0 then 1.0 else 1e6 in
  let picks =
    Acquire.select_top upd ~policy:Acquire.Cost_weighted ~round:1
      ~cost:expensive ~rows ~n:3
  in
  check_int "three picks" 3 (Array.length picks);
  Array.iter
    (fun (s, _) -> check_int "cheap state wins every slot" 0 s)
    picks;
  let rr1 =
    Acquire.select_top upd ~policy:Acquire.Round_robin ~round:1
      ~cost:expensive ~rows ~n:4
  in
  let rr1' =
    Acquire.select_top upd ~policy:Acquire.Round_robin ~round:1
      ~cost:expensive ~rows ~n:4
  in
  check_true "round-robin deterministic" (rr1 = rr1')

let test_acquire_domain_invariance () =
  let upd, rows = acquire_fixture () in
  let grid () =
    let g = Acquire.variances upd ~rows in
    hash_floats (Array.concat (Array.to_list g))
  in
  Pool.set_default_size 1;
  let h1 = grid () in
  Pool.set_default_size 4;
  let h4 = grid () in
  Pool.set_default_size (Pool.env_domains ());
  check_true "variance grid bit-identical at 1 vs 4 domains" (h1 = h4)

let test_policy_names () =
  List.iter
    (fun p ->
      check_true (Acquire.policy_name p)
        (Acquire.policy_of_string (Acquire.policy_name p) = p))
    [ Acquire.Variance; Acquire.Cost_weighted; Acquire.Round_robin ];
  check_raises_invalid "unknown policy" (fun () ->
      Acquire.policy_of_string "greedy")

(* {1 Satellite 6: per-sample simulator oracle} *)

let sim_spec =
  { Syn.default_spec with
    k = 3;
    m = 9;
    d = 6;
    active_per_state = 3;
    noise_sigma = 0.05;
    seed = 21 }

let test_simulate_deterministic () =
  let t = Syn.truth sim_spec in
  let x = Array.make 6 0.3 in
  let a = Syn.simulate t ~state:1 ~index:4 x in
  (* interleave other draws: addressed streams must not care *)
  let _ = Syn.simulate t ~state:0 ~index:0 x in
  let _ = Syn.simulate t ~state:2 ~index:9 x in
  let b = Syn.simulate t ~state:1 ~index:4 x in
  check_true "bitwise repeatable"
    (Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b));
  let c = Syn.simulate t ~state:1 ~index:5 x in
  check_true "index moves the noise stream" (a <> c)

let test_simulate_noiseless_is_mean () =
  let t = Syn.truth { sim_spec with noise_sigma = 0.0 } in
  let rng = Cbmf_prob.Rng.create 123 in
  for _ = 1 to 5 do
    let x = Array.init 6 (fun _ -> Cbmf_prob.Rng.gaussian rng) in
    let s = Cbmf_prob.Rng.int rng 3 in
    check_float ~tol:0.0 "sigma = 0 gives the exact mean"
      (Syn.mean_at t ~state:s x)
      (Syn.simulate t ~state:s ~index:0 x)
  done

let test_candidate_prefix_nesting () =
  let t = Syn.truth sim_spec in
  let small = Syn.candidate_xs t ~round:2 ~n:3 in
  let big = Syn.candidate_xs t ~round:2 ~n:7 in
  for i = 0 to 2 do
    check_true "pool prefix bitwise" (hash_floats small.(i) = hash_floats big.(i))
  done;
  let other = Syn.candidate_xs t ~round:3 ~n:3 in
  check_true "rounds never share draws"
    (hash_floats small.(0) <> hash_floats other.(0))

let test_seed_dataset_prefix () =
  let sim = Sim.of_synthetic (Syn.truth sim_spec) in
  let d2 = Sim.seed_dataset sim ~n0:2 in
  let d4 = Sim.seed_dataset sim ~n0:4 in
  let d4' = Dataset.truncate_samples d4 ~n:2 in
  check_int "rows" 2 d2.Dataset.n_samples;
  for s = 0 to 2 do
    check_true "seed grids nest as prefixes"
      ((Dataset.state_design d2 s).Mat.data
      = (Dataset.state_design d4' s).Mat.data
      && Dataset.state_response d2 s = Dataset.state_response d4' s)
  done

(* {1 Stream} *)

let test_stream_counts_and_rows () =
  let sim = Sim.of_synthetic (Syn.truth sim_spec) in
  let st = Stream.create (Sim.seed_dataset sim ~n0:3) in
  check_int "n0" 3 (Stream.n0 st);
  let rng = Cbmf_prob.Rng.create 9 in
  for _ = 1 to 2 do
    let rows =
      Array.init 3 (fun _ -> Array.init 9 (fun _ -> Cbmf_prob.Rng.gaussian rng))
    in
    let ys = Array.init 3 (fun _ -> Cbmf_prob.Rng.gaussian rng) in
    Stream.append st ~rows ~ys
  done;
  check_int "appended" 2 (Stream.appended st);
  check_int "n_per_state" 5 (Stream.n_per_state st);
  check_int "dataset grew" 5 (Stream.dataset st).Dataset.n_samples;
  Dataset.validate_exn (Stream.dataset st)

(* {1 The loop} *)

let loop_spec =
  { Syn.default_spec with
    k = 3;
    m = 7;
    d = 5;
    active_per_state = 3;
    noise_sigma = 0.05;
    seed = 33 }

let loop_prior0 =
  lazy
    (Cbmf_core.Prior.create
       ~lambda:(Array.make 7 1.0)
       ~r:(Cbmf_core.Prior.r_of_r0 ~n_states:3 ~r0:0.5)
       ~sigma0:0.2)

let loop_config ~rounds =
  { Loop.default_config with
    n0 = 4;
    rounds;
    pool_size = 6;
    resync_every = 2;
    em = { Cbmf_core.Em.default_config with max_iter = 5; tol = 1e-3 };
    checkpoints = [| 18 |] }

let run_loop ?policy ?budget ~rounds () =
  let config = loop_config ~rounds in
  let config =
    match budget with None -> config | Some b -> { config with budget = b }
  in
  let config =
    match policy with None -> config | Some p -> { config with policy = p }
  in
  Loop.run ~config
    ~sim:(Sim.of_synthetic (Syn.truth loop_spec))
    ~prior0:(Lazy.force loop_prior0) ()

let test_loop_accounting () =
  let res = run_loop ~rounds:5 () in
  check_int "simulated = seed + rounds·K" ((4 * 3) + (5 * 3)) res.Loop.simulated;
  check_float ~tol:1e-12 "unit-cost accounting" 27.0 res.Loop.sim_cost;
  check_int "one log per round" 5 (Array.length res.Loop.logs);
  Array.iteri
    (fun i l -> check_int "rounds in order" (i + 1) l.Loop.round)
    res.Loop.logs;
  check_true "resyncs at 2 and 4"
    (Array.for_all
       (fun l -> l.Loop.resync = (l.Loop.round mod 2 = 0))
       res.Loop.logs);
  check_int "em runs: cold + 2 resyncs" 3 res.Loop.em_runs;
  check_int "one checkpoint" 1 (Array.length res.Loop.checkpoints);
  check_int "checkpoint at 18 samples" 18
    res.Loop.checkpoints.(0).Loop.at_samples;
  check_int "dataset rows" 9 res.Loop.data.Dataset.n_samples;
  check_true "nlml finite"
    (Array.for_all (fun l -> Float.is_finite l.Loop.nlml) res.Loop.logs);
  check_int "coeff rows = K" 3 res.Loop.coeffs.Mat.rows;
  check_int "coeff cols = M" 7 res.Loop.coeffs.Mat.cols

let test_loop_budget_cap () =
  let res = run_loop ~rounds:10 ~budget:20 () in
  (* seed 12, +3 per round, next round only if simulated + K ≤ budget:
     12 → 15 → 18, then 21 > 20 stops *)
  check_int "stops under budget" 18 res.Loop.simulated;
  check_int "two rounds ran" 2 (Array.length res.Loop.logs)

let test_loop_prefix_nesting () =
  let short = run_loop ~rounds:2 () in
  let long = run_loop ~rounds:5 () in
  let cut = Dataset.truncate_samples long.Loop.data ~n:6 in
  for s = 0 to 2 do
    check_true "short run's data is a prefix of the long run's"
      ((Dataset.state_design short.Loop.data s).Mat.data
      = (Dataset.state_design cut s).Mat.data
      && Dataset.state_response short.Loop.data s
         = Dataset.state_response cut s)
  done;
  for i = 0 to 1 do
    check_true "shared rounds log identical NLML"
      (Int64.equal
         (Int64.bits_of_float short.Loop.logs.(i).Loop.nlml)
         (Int64.bits_of_float long.Loop.logs.(i).Loop.nlml))
  done

let loop_hash res =
  let acc = hash_floats_acc Seeded.fnv_offset res.Loop.coeffs.Mat.data in
  hash_floats_acc acc
    (Array.map (fun l -> l.Loop.nlml) res.Loop.logs)

let test_loop_domain_invariance () =
  Pool.set_default_size 1;
  let h1 = loop_hash (run_loop ~rounds:4 ()) in
  Pool.set_default_size 2;
  let h2 = loop_hash (run_loop ~rounds:4 ()) in
  Pool.set_default_size 4;
  let h4 = loop_hash (run_loop ~rounds:4 ()) in
  Pool.set_default_size (Pool.env_domains ());
  check_true "bit-identical at 1 vs 2 domains" (Int64.equal h1 h2);
  check_true "bit-identical at 1 vs 4 domains" (Int64.equal h1 h4)

let test_loop_round_robin_policy () =
  let res = run_loop ~policy:Acquire.Round_robin ~rounds:3 () in
  check_int "same budget accounting" ((4 * 3) + (3 * 3)) res.Loop.simulated;
  Array.iter
    (fun l -> check_float ~tol:0.0 "round robin never scores" 0.0 l.Loop.max_score)
    res.Loop.logs

let gen_parity =
  QCheck2.Gen.(
    quad (int_range 1 4) (int_range 1 3) (int_range 2 8) (int_range 0 100_000))

let suite =
  [ ( "active",
      [ qcase ~count:30 "Dataset.append caches = rebuild (bitwise)"
          gen_grow prop_append_cache_parity;
        case "append_row single sample" test_append_row_single;
        case "append shape validation" test_append_shape_mismatch;
        qcase ~count:40 "Woodbury stream = `Primal refit @ 1e-8 (full active)"
          gen_parity prop_woodbury_full_active;
        qcase ~count:25 "Woodbury stream = `Primal refit @ 1e-8 (sparse active)"
          gen_parity prop_woodbury_sparse_active;
        qcase ~count:15 "Woodbury stream = `Primal refit @ a = 1" gen_parity
          prop_woodbury_single_active;
        case "ragged appends are order-invariant" test_ragged_order_invariance;
        case "update validation" test_update_validation;
        case "append_round = per-state appends (bits)" test_append_round;
        case "predictive = coefficients·b and variance" test_predictive;
        case "Em.run warm start" test_em_warm_start;
        case "variance policy picks the extreme candidate"
          test_acquire_variance_picks_extreme;
        case "round-robin rotation" test_acquire_round_robin;
        case "select_top cost weighting" test_acquire_select_top_cost;
        case "variance grid domain-invariant" test_acquire_domain_invariance;
        case "policy names round-trip" test_policy_names;
        case "Synthetic.simulate addressed streams" test_simulate_deterministic;
        case "Synthetic.simulate sigma=0 = mean_at"
          test_simulate_noiseless_is_mean;
        case "candidate pools nest as prefixes" test_candidate_prefix_nesting;
        case "seed grids nest as prefixes" test_seed_dataset_prefix;
        case "stream counts and growth" test_stream_counts_and_rows;
        slow_case "loop budget accounting" test_loop_accounting;
        case "loop stops at the budget" test_loop_budget_cap;
        slow_case "loop runs nest as prefixes" test_loop_prefix_nesting;
        slow_case "loop bit-identical at 1/2/4 domains"
          test_loop_domain_invariance;
        case "round-robin loop policy" test_loop_round_robin_policy ] ) ]
