open Cbmf_linalg
open Cbmf_model
open Cbmf_core
open Helpers

(* Planted correlated multi-state problem (constant column at 0). *)
let planted ?(k = 8) ?(n = 10) ?(m = 30) ?(noise = 0.05) ?(seed = 3)
    ?(smooth = 0.15) () =
  let rng = Cbmf_prob.Rng.create seed in
  let coef s j =
    match j with
    | 0 -> 4.0
    | 5 -> 1.5 *. (1.0 +. (smooth *. sin (0.3 *. float_of_int s)))
    | 12 -> -1.0 *. (1.0 +. (smooth *. cos (0.25 *. float_of_int s)))
    | 21 -> 0.6
    | _ -> 0.0
  in
  let design =
    Array.init k (fun _ ->
        Mat.init n m (fun _ j -> if j = 0 then 1.0 else Cbmf_prob.Rng.gaussian rng))
  in
  let response =
    Array.init k (fun s ->
        Array.init n (fun i ->
            let acc = ref (noise *. Cbmf_prob.Rng.gaussian rng) in
            for j = 0 to m - 1 do
              let c = coef s j in
              if c <> 0.0 then acc := !acc +. (c *. Mat.get design.(s) i j)
            done;
            !acc))
  in
  Dataset.create ~design ~response

(* --- Standardize --- *)

let test_standardize_roundtrip_stats () =
  let d = planted () in
  let tr, std = Standardize.fit d in
  (* Standardized responses: zero mean per state, unit pooled variance. *)
  Array.iter
    (fun y -> check_true "centered" (abs_float (Vec.mean y) < 1e-10))
    std.Dataset.response;
  let pooled = ref 0.0 and count = ref 0 in
  Array.iter
    (fun y ->
      Array.iter (fun v -> pooled := !pooled +. (v *. v)) y;
      count := !count + Array.length y)
    std.Dataset.response;
  check_true "unit variance"
    (abs_float ((!pooled /. float_of_int (!count - d.Dataset.n_states)) -. 1.0) < 0.05);
  check_true "scale positive" (Standardize.response_scale tr > 0.0)

let test_standardize_drops_constant () =
  let d = planted ~m:10 () in
  let tr, std = Standardize.fit d in
  check_int "constant dropped" 9 std.Dataset.n_basis;
  check_true "kept excludes 0"
    (not (Array.exists (fun c -> c = 0) (Standardize.kept_columns tr)))

let test_standardize_coeff_roundtrip () =
  (* Fit OLS on standardized data, map back, and check raw predictions. *)
  let d = planted ~n:40 ~noise:0.0 () in
  let tr, std = Standardize.fit d in
  let coeffs_std = Ols.fit std in
  let coeffs = Standardize.unstandardize_coeffs tr coeffs_std in
  check_float ~tol:1e-7 "raw-unit error" 0.0 (Metrics.coeffs_error_pooled ~coeffs d)

let test_standardize_apply_consistent () =
  let d = planted () in
  let tr, std = Standardize.fit d in
  let again = Standardize.apply tr d in
  check_float "idempotent transform"
    (Mat.get std.Dataset.design.(2) 3 4)
    (Mat.get again.Dataset.design.(2) 3 4)

let test_standardize_params_roundtrip () =
  (* The persisted view rebuilds a transform that maps data and
     coefficients to the same bits. *)
  let d = planted () in
  let tr, std = Standardize.fit d in
  let p = Standardize.params tr in
  let tr' = Standardize.of_params p in
  check_true "params equal" (Standardize.params tr' = p);
  let again = Standardize.apply tr' d in
  for s = 0 to d.Dataset.n_states - 1 do
    check_bits "design" std.Dataset.design.(s).Mat.data
      again.Dataset.design.(s).Mat.data;
    check_bits "response" std.Dataset.response.(s) again.Dataset.response.(s)
  done;
  let c =
    Seeded.random_mat (Cbmf_prob.Rng.create 19) d.Dataset.n_states
      std.Dataset.n_basis
  in
  check_bits "unstandardize_coeffs"
    (Standardize.unstandardize_coeffs tr c).Mat.data
    (Standardize.unstandardize_coeffs tr' c).Mat.data

let test_standardize_of_params_validation () =
  let tr, _ = Standardize.fit (planted ~m:10 ()) in
  let p = Standardize.params tr in
  List.iter
    (fun (name, q) ->
      check_raises_invalid name (fun () -> Standardize.of_params q))
    [ ("n_states", { p with Standardize.n_states = 0 });
      ("y_means length", { p with Standardize.y_means = [||] });
      ("zero y_scale", { p with Standardize.y_scale = 0.0 });
      ("NaN y_scale", { p with Standardize.y_scale = Float.nan });
      ( "col_means shape",
        { p with Standardize.col_means = Mat.create p.Standardize.n_states 3 } );
      ( "negative col_scales",
        { p with
          Standardize.col_scales = Array.make p.Standardize.n_basis_raw (-1.0) } );
      ("kept range", { p with Standardize.kept = [| p.Standardize.n_basis_raw |] });
      ("constant_col range", { p with Standardize.constant_col = Some (-1) }) ]

let test_standardize_row () =
  let d = planted () in
  let tr, std = Standardize.fit d in
  for s = 0 to 2 do
    check_bits "row = apply's row"
      (Mat.row std.Dataset.design.(s) 4)
      (Standardize.standardize_row tr ~state:s (Mat.row d.Dataset.design.(s) 4));
    check_float ~tol:1e-12 "response_mean = training mean"
      (Vec.mean d.Dataset.response.(s))
      (Standardize.response_mean tr s)
  done

(* --- Prior --- *)

let test_r_of_r0 () =
  let r = Prior.r_of_r0 ~n_states:4 ~r0:0.5 in
  check_float "diag" 1.0 (Mat.get r 0 0);
  check_float "adjacent" 0.5 (Mat.get r 0 1);
  check_float "distance 3" 0.125 (Mat.get r 0 3);
  check_true "PD" (Chol.is_positive_definite r);
  let i = Prior.r_of_r0 ~n_states:3 ~r0:0.0 in
  mat_close "r0=0 is identity" (Mat.identity 3) i

let test_prior_validation () =
  let lambda = Vec.make 5 1.0 in
  let r = Prior.r_of_r0 ~n_states:3 ~r0:0.9 in
  let p = Prior.create ~lambda ~r ~sigma0:0.1 in
  check_int "n_basis" 5 (Prior.n_basis p);
  check_int "n_states" 3 (Prior.n_states p);
  (match Prior.create ~lambda ~r ~sigma0:0.0 with
  | _ -> Alcotest.fail "expected assert"
  | exception Assert_failure _ -> ())

let test_active_set () =
  let lambda = [| 1.0; 1e-9; 0.5; 0.0 |] in
  let p =
    Prior.create ~lambda ~r:(Prior.r_of_r0 ~n_states:2 ~r0:0.5) ~sigma0:0.1
  in
  check_true "active" (Prior.active_set p ~tol:1e-6 = [| 0; 2 |])

(* --- Posterior: structured vs dense reference --- *)

let test_posterior_matches_naive () =
  (* Tiny instance where the (M·K)-dense path is affordable. *)
  let d = planted ~k:3 ~n:6 ~m:5 ~noise:0.1 () in
  let lambda = [| 0.8; 0.3; 1.2; 0.05; 0.6 |] in
  let r = Prior.r_of_r0 ~n_states:3 ~r0:0.7 in
  let prior = Prior.create ~lambda ~r ~sigma0:0.3 in
  let post =
    Posterior.compute d prior ~active:(Array.init 5 Fun.id)
  in
  let mu_naive, sigma_naive, nlml_naive = Posterior.naive_dense d prior in
  mat_close ~tol:1e-7 "posterior mean" mu_naive post.Posterior.mu;
  check_float ~tol:1e-6 "marginal likelihood" nlml_naive post.Posterior.nlml;
  (* Diagonal blocks of the dense Σp must match the structured blocks. *)
  Array.iter
    (fun (m, block) ->
      let dense_block =
        Mat.submatrix sigma_naive ~row0:(m * 3) ~col0:(m * 3) ~rows:3 ~cols:3
      in
      mat_close ~tol:1e-7 (Printf.sprintf "sigma block %d" m) dense_block block)
    post.Posterior.sigma_blocks

let test_posterior_zero_lambda_inactive () =
  let d = planted ~k:3 ~n:6 ~m:5 () in
  let lambda = [| 1.0; 0.0; 1.0; 0.0; 1.0 |] in
  let prior =
    Prior.create ~lambda ~r:(Prior.r_of_r0 ~n_states:3 ~r0:0.5) ~sigma0:0.2
  in
  let post = Posterior.compute d prior ~active:[| 0; 2; 4 |] in
  check_float "inactive mu zero" 0.0 (Mat.get post.Posterior.mu 1 0);
  check_int "blocks only active" 3 (Array.length post.Posterior.sigma_blocks)

let test_posterior_shrinks_with_small_lambda () =
  let d = planted ~k:3 ~n:8 ~m:5 () in
  let mk lam =
    let prior =
      Prior.create ~lambda:(Vec.make 5 lam)
        ~r:(Prior.r_of_r0 ~n_states:3 ~r0:0.5)
        ~sigma0:0.3
    in
    let p = Posterior.compute ~need_sigma:false d prior ~active:(Array.init 5 Fun.id) in
    Mat.frobenius p.Posterior.mu
  in
  check_true "tighter prior shrinks harder" (mk 1e-4 < 0.05 *. mk 10.0)

let test_posterior_interpolates_as_sigma_to_zero () =
  (* With a huge prior and tiny noise, training residual goes to ~0. *)
  let d = planted ~k:2 ~n:6 ~m:8 ~noise:0.0 () in
  let prior =
    Prior.create ~lambda:(Vec.make 8 100.0)
      ~r:(Prior.r_of_r0 ~n_states:2 ~r0:0.5)
      ~sigma0:1e-3
  in
  let p = Posterior.compute ~need_sigma:false d prior ~active:(Array.init 8 Fun.id) in
  check_true "near interpolation" (p.Posterior.resid_sq < 1e-4)

let test_coefficients_layout () =
  let d = planted ~k:3 ~n:6 ~m:5 () in
  let prior =
    Prior.create ~lambda:(Vec.make 5 1.0)
      ~r:(Prior.r_of_r0 ~n_states:3 ~r0:0.5)
      ~sigma0:0.2
  in
  let p = Posterior.compute ~need_sigma:false d prior ~active:(Array.init 5 Fun.id) in
  let c = Posterior.coefficients p in
  check_int "K rows" 3 (fst (Mat.dim c));
  check_int "M cols" 5 (snd (Mat.dim c));
  check_float "transpose consistency" (Mat.get p.Posterior.mu 2 1) (Mat.get c 1 2)

(* --- EM --- *)

let std_planted ?smooth ?noise ?seed () =
  let d = planted ?smooth ?noise ?seed ~n:12 () in
  let _, std = Standardize.fit d in
  std

let uniform_prior std =
  Prior.create
    ~lambda:(Vec.make std.Dataset.n_basis 0.5)
    ~r:(Prior.r_of_r0 ~n_states:std.Dataset.n_states ~r0:0.5)
    ~sigma0:0.3

let test_em_nlml_decreases () =
  let std = std_planted () in
  let _, _, trace = Em.run std (uniform_prior std) in
  let h = trace.Em.nlml_history in
  check_true "history nonempty" (Array.length h >= 2);
  for i = 1 to Array.length h - 1 do
    (* EM guarantees non-increase; allow tiny numerical slack plus the
       effect of R renormalization. *)
    check_true "nlml non-increasing" (h.(i) <= h.(i - 1) +. 0.5)
  done

let test_em_prunes_to_support () =
  (* Seed λ the way the initializer does: 1 on a support guess that
     includes two junk columns, tiny elsewhere.  EM must keep the
     planted columns and prune the junk after the warm iteration. *)
  let std = std_planted ~noise:0.02 () in
  let lambda = Array.make std.Dataset.n_basis 1e-7 in
  List.iter (fun j -> lambda.(j) <- 1.0) [ 4; 11; 20; 2; 17 ];
  let prior0 =
    Prior.create ~lambda
      ~r:(Prior.r_of_r0 ~n_states:std.Dataset.n_states ~r0:0.5)
      ~sigma0:0.1
  in
  let prior, post, _ = Em.run std prior0 in
  check_true "pruned substantially"
    (Array.length post.Posterior.active <= 8);
  let lam = prior.Prior.lambda in
  check_true "kept the signal columns"
    (lam.(4) > 0.0 && lam.(11) > 0.0 && lam.(20) > 0.0);
  (* The three planted columns must carry the largest lambdas. *)
  let order = Array.init (Array.length lam) Fun.id in
  Array.sort (fun i j -> compare lam.(j) lam.(i)) order;
  let top3 = Array.sub order 0 3 in
  Array.sort compare top3;
  check_true "top-3 lambda = planted support" (top3 = [| 4; 11; 20 |])

let test_em_fixed_r () =
  let std = std_planted () in
  let r0 = Prior.r_of_r0 ~n_states:std.Dataset.n_states ~r0:0.5 in
  let prior, _, _ =
    Em.run ~config:{ Em.default_config with update_r = false } std
      (uniform_prior std)
  in
  mat_close ~tol:1e-12 "R frozen" r0 prior.Prior.r

let test_em_sigma_update_floor () =
  let std = std_planted () in
  let cfg = { Em.default_config with update_sigma0 = true; min_sigma0 = 0.25 } in
  let prior, _, _ = Em.run ~config:cfg std (uniform_prior std) in
  check_true "floor respected" (prior.Prior.sigma0 >= 0.25)

let test_em_r_stays_pd () =
  let std = std_planted ~smooth:0.4 () in
  let prior, _, _ = Em.run std (uniform_prior std) in
  check_true "R PD" (Chol.is_positive_definite prior.Prior.r);
  check_true "R symmetric" (Mat.is_symmetric ~tol:1e-8 prior.Prior.r)

let test_em_min_active () =
  let std = std_planted () in
  let cfg = { Em.default_config with prune_tol = 1.0; min_active = 3 } in
  let _, post, _ = Em.run ~config:cfg std (uniform_prior std) in
  check_true "min_active respected" (Array.length post.Posterior.active >= 3)

let test_prune_all_zero_lambda () =
  (* Every λ = 0 ⇒ nothing clears the relative floor and the fallback
     must pick the lowest-indexed columns deterministically. *)
  let cfg = { Em.default_config with min_active = 2 } in
  let kept = Em.prune cfg ~iter:5 (Array.make 6 0.0) in
  check_int "kept count" 2 (Array.length kept);
  check_int "first column" 0 kept.(0);
  check_int "second column" 1 kept.(1);
  (* Warm iterations hit the same fallback (tol·lmax = 0 either way). *)
  let warm = Em.prune cfg ~iter:1 (Array.make 6 0.0) in
  check_true "warm identical" (warm = kept)

let test_prune_tied_lambda_deterministic () =
  (* All-equal λ also ties the sort keys: the kept set must still be
     the smallest column indices, independent of sort internals. *)
  let cfg = { Em.default_config with min_active = 3; prune_tol = 2.0 } in
  let kept = Em.prune cfg ~iter:5 (Array.make 8 0.7) in
  check_true "ties broken by index" (kept = [| 0; 1; 2 |])

let test_prune_single_column () =
  let cfg = { Em.default_config with min_active = 1 } in
  check_true "single zero column kept"
    (Em.prune cfg ~iter:5 [| 0.0 |] = [| 0 |]);
  check_true "single positive column kept"
    (Em.prune cfg ~iter:5 [| 0.3 |] = [| 0 |]);
  (* min_active larger than M must clamp, not crash. *)
  let cfg3 = { Em.default_config with min_active = 3 } in
  check_true "clamped to M" (Em.prune cfg3 ~iter:5 [| 0.0 |] = [| 0 |])

(* --- Init --- *)

let test_init_finds_support () =
  let d = planted ~n:14 ~noise:0.02 () in
  let _, std = Standardize.fit d in
  let res = Init.run std in
  let sorted = Array.copy res.Init.support in
  Array.sort compare sorted;
  (* std columns are raw minus the constant: {5,12,21} → {4,11,20} *)
  Array.iter
    (fun want ->
      check_true
        (Printf.sprintf "support contains %d" want)
        (Array.exists (fun s -> s = want) sorted))
    [| 4; 11; 20 |]

let test_init_prior_shape () =
  let d = planted ~n:14 () in
  let _, std = Standardize.fit d in
  let res = Init.run std in
  let lam = res.Init.prior.Prior.lambda in
  check_int "lambda size" std.Dataset.n_basis (Array.length lam);
  Array.iter (fun s -> check_float "on-support lambda" 1.0 lam.(s)) res.Init.support;
  check_true "cv error sane" (res.Init.cv_error > 0.0 && res.Init.cv_error < 1.0)

let test_greedy_pass_errors_shape () =
  let d = planted ~n:14 () in
  let _, std = Standardize.fit d in
  let train, test = Dataset.split_fold std ~n_folds:3 ~fold:0 in
  let support, errs =
    Init.greedy_pass ~train ~test:(Some test) ~r0:0.8 ~sigma0:0.2 ~theta_max:6
  in
  check_int "one error per step" (Array.length support) (Array.length errs);
  check_true "improves over first step" (errs.(Array.length errs - 1) < errs.(0))

let test_greedy_pass_incremental_matches_posterior () =
  (* The incremental rank-1-updated solve must agree with a from-scratch
     structured posterior on the selected support. *)
  let d = planted ~k:4 ~n:8 ~m:12 ~noise:0.05 () in
  let _, std = Standardize.fit d in
  let r0 = 0.7 and sigma0 = 0.25 in
  let support, _ =
    Init.greedy_pass ~train:std ~test:None ~r0 ~sigma0 ~theta_max:3
  in
  let lambda = Array.make std.Dataset.n_basis 0.0 in
  Array.iter (fun s -> lambda.(s) <- 1.0) support;
  let prior =
    Prior.create ~lambda
      ~r:(Prior.r_of_r0 ~n_states:std.Dataset.n_states ~r0)
      ~sigma0
  in
  let post = Posterior.compute ~need_sigma:false std prior ~active:support in
  (* Rebuild the greedy pass's final residual norm from the posterior μ
     and check it is consistent (same coefficients → same residual). *)
  let coeffs = Posterior.coefficients post in
  let err = Metrics.coeffs_error_pooled ~coeffs std in
  check_true "consistent residual" (err < 0.2)

(* Pinned golden for the whole CV grid.  The r0 grid includes 0.0,
   where R = I and every rank-one update vector of the greedy pass has
   a long zero prefix.  Everything the grid selects — support, θ, r0,
   σ0 and the CV error — is folded bit-for-bit into one FNV hash; the
   grid must reproduce it at any domain count and across refactors of
   the factor kernels. *)
let init_golden_hash = 7812487250925055797L

let init_golden_config =
  { Init.default_config with
    r0_grid = [| 0.0; 0.7; 0.95 |];
    sigma0_grid = [| 0.1; 0.3 |];
    theta_max = 8;
    n_folds = 3 }

let init_golden_run () =
  let d = planted ~k:6 ~n:12 ~m:24 ~seed:41 () in
  let _, std = Standardize.fit d in
  let res = Init.run ~config:init_golden_config std in
  hash_floats
    (Array.append
       (Array.map float_of_int res.Init.support)
       [| float_of_int res.Init.theta; res.Init.r0; res.Init.sigma0;
          res.Init.cv_error |])

let test_init_golden () =
  Fun.protect
    ~finally:(fun () ->
      Cbmf_parallel.Pool.set_default_size (Cbmf_parallel.Pool.env_domains ()))
    (fun () ->
      List.iter
        (fun domains ->
          Cbmf_parallel.Pool.set_default_size domains;
          check_true
            (Printf.sprintf "Init.run golden at %d domain(s)" domains)
            (Int64.equal (init_golden_run ()) init_golden_hash))
        [ 1; 2 ])

(* --- Cbmf end-to-end --- *)

let test_cbmf_beats_somp_small_n () =
  let d = planted ~k:12 ~n:8 ~m:40 ~noise:0.05 ~seed:21 () in
  let test_data = planted ~k:12 ~n:60 ~m:40 ~noise:0.05 ~seed:22 () in
  let model = Cbmf.fit ~config:Cbmf.fast_config d in
  let cbmf_err = Cbmf.test_error model test_data in
  let somp, _ = Somp.fit_cv d ~n_folds:3 ~candidate_terms:[| 2; 3; 5; 7 |] in
  let somp_err = Metrics.coeffs_error_pooled ~coeffs:somp.Somp.coeffs test_data in
  check_true
    (Printf.sprintf "cbmf (%.4f) <= somp (%.4f)" cbmf_err somp_err)
    (cbmf_err <= somp_err +. 0.002)

let test_cbmf_info_populated () =
  let d = planted ~n:10 () in
  let model = Cbmf.fit ~config:Cbmf.fast_config d in
  let info = model.Cbmf.info in
  check_true "theta > 0" (info.Cbmf.theta > 0);
  check_true "iterations > 0" (info.Cbmf.em_iterations > 0);
  check_true "fit time recorded" (info.Cbmf.fit_seconds >= 0.0);
  check_true "active > 0" (info.Cbmf.final_active > 0);
  check_int "R is KxK" d.Dataset.n_states (fst (Mat.dim info.Cbmf.final_r))

let test_cbmf_fit_seconds_wall () =
  (* CPU time summed over two busy domains exceeds the wall time around
     the call; the recorded fit time must be the wall time within it. *)
  let d = planted ~k:12 ~n:12 ~m:40 () in
  Cbmf_parallel.Pool.set_default_size 2;
  Fun.protect
    ~finally:(fun () ->
      Cbmf_parallel.Pool.set_default_size (Cbmf_parallel.Pool.env_domains ()))
    (fun () ->
      let t0 = Unix.gettimeofday () in
      let model = Cbmf.fit d in
      let wall = Unix.gettimeofday () -. t0 in
      let s = model.Cbmf.info.Cbmf.fit_seconds in
      check_true
        (Printf.sprintf "fit_seconds %.4f <= wall %.4f" s wall)
        (s > 0.0 && s <= wall))

let test_cbmf_predict_state () =
  let d = planted ~n:20 ~noise:0.0 () in
  let model = Cbmf.fit ~config:Cbmf.fast_config d in
  let pred = Cbmf.predict_state model ~design:d.Dataset.design.(3) ~state:3 in
  check_true "near-exact on noiseless data"
    (Metrics.relative_rms ~predicted:pred ~actual:d.Dataset.response.(3) < 0.02)

let test_cbmf_independent_config_runs () =
  let d = planted ~n:10 () in
  let model = Cbmf.fit ~config:Cbmf.independent_config d in
  check_float "r0 forced to 0" 0.0 model.Cbmf.info.Cbmf.r0;
  check_true "still fits" (Cbmf.test_error model d < 0.2)

let test_cbmf_correlation_helps () =
  (* Strongly correlated coefficients: the correlated prior should do at
     least as well as the independent one on held-out data. *)
  let d = planted ~k:12 ~n:7 ~m:40 ~noise:0.08 ~smooth:0.1 ~seed:31 () in
  let test_data = planted ~k:12 ~n:60 ~m:40 ~noise:0.08 ~smooth:0.1 ~seed:32 () in
  let full = Cbmf.fit d in
  let indep = Cbmf.fit ~config:Cbmf.independent_config d in
  let e_full = Cbmf.test_error full test_data in
  let e_indep = Cbmf.test_error indep test_data in
  check_true
    (Printf.sprintf "correlated (%.4f) <= independent (%.4f) + slack" e_full e_indep)
    (e_full <= e_indep +. 0.005)

(* --- Predictive uncertainty --- *)

let test_uncertainty_mean_matches_coeffs () =
  let d = planted ~n:15 () in
  let model = Cbmf.fit ~config:Cbmf.fast_config d in
  let row = Mat.row d.Dataset.design.(2) 0 in
  let mean, sd = model.Cbmf.uncertainty ~state:2 row in
  let direct = Vec.dot row (Mat.row model.Cbmf.coeffs 2) in
  check_float ~tol:1e-6 "predictive mean = coefficient dot" direct mean;
  check_true "sd positive" (sd > 0.0)

let test_uncertainty_shrinks_with_data () =
  let small = planted ~n:6 ~seed:71 () in
  let large = planted ~n:30 ~seed:71 () in
  let m_small = Cbmf.fit ~config:Cbmf.fast_config small in
  let m_large = Cbmf.fit ~config:Cbmf.fast_config large in
  let probe = planted ~n:1 ~seed:72 () in
  let row = Mat.row probe.Dataset.design.(0) 0 in
  let _, sd_small = m_small.Cbmf.uncertainty ~state:0 row in
  let _, sd_large = m_large.Cbmf.uncertainty ~state:0 row in
  check_true
    (Printf.sprintf "sd shrinks (%.4f -> %.4f)" sd_small sd_large)
    (sd_large <= sd_small +. 1e-9)

let test_uncertainty_calibration () =
  (* At least ~2/3 of held-out residuals inside ±2 sd (loose sanity —
     exact calibration is not expected from a misspecified prior). *)
  let train = planted ~n:12 ~seed:73 () in
  let test_data = planted ~n:40 ~seed:74 () in
  let model = Cbmf.fit ~config:Cbmf.fast_config train in
  let inside = ref 0 and total = ref 0 in
  for s = 0 to test_data.Dataset.n_states - 1 do
    for i = 0 to test_data.Dataset.n_samples - 1 do
      let row = Mat.row test_data.Dataset.design.(s) i in
      let mean, sd = model.Cbmf.uncertainty ~state:s row in
      incr total;
      if abs_float (test_data.Dataset.response.(s).(i) -. mean) <= 2.0 *. sd
      then incr inside
    done
  done;
  let frac = float_of_int !inside /. float_of_int !total in
  check_true (Printf.sprintf "coverage %.2f >= 0.66" frac) (frac >= 0.66)

let test_posterior_predictive_consistency () =
  (* The posterior's predictive mean on a training row must equal the
     model prediction assembled from μ. *)
  let d = planted ~k:4 ~n:8 ~m:12 () in
  let _, std = Standardize.fit d in
  let prior =
    Prior.create
      ~lambda:(Vec.make std.Dataset.n_basis 1.0)
      ~r:(Prior.r_of_r0 ~n_states:4 ~r0:0.6)
      ~sigma0:0.2
  in
  let post =
    Posterior.compute ~need_sigma:false std prior
      ~active:(Array.init std.Dataset.n_basis Fun.id)
  in
  let row = Mat.row std.Dataset.design.(1) 3 in
  let mean, var = post.Posterior.predictive ~state:1 row in
  let direct = Vec.dot row (Mat.col post.Posterior.mu 1) in
  check_float ~tol:1e-8 "mean consistency" direct mean;
  check_true "variance nonnegative" (var >= 0.0);
  (* Prior-only sanity: variance cannot exceed aᵀAa. *)
  let a_aa =
    Mat.get prior.Prior.r 1 1
    *. Array.fold_left ( +. ) 0.0 (Array.map (fun b -> b *. b) row)
  in
  check_true "posterior tighter than prior" (var <= a_aa +. 1e-9)

let suite_uncertainty =
  [ ( "core.uncertainty",
      [ case "mean matches coefficients" test_uncertainty_mean_matches_coeffs;
        case "sd shrinks with data" test_uncertainty_shrinks_with_data;
        slow_case "2-sigma coverage" test_uncertainty_calibration;
        case "posterior predictive consistency" test_posterior_predictive_consistency ] ) ]

let suite =
  suite_uncertainty
  @ [ ( "core.standardize",
      [ case "centering and scaling" test_standardize_roundtrip_stats;
        case "constant column dropped" test_standardize_drops_constant;
        case "coefficient roundtrip" test_standardize_coeff_roundtrip;
        case "apply consistent" test_standardize_apply_consistent;
        case "params/of_params round-trip (bits)" test_standardize_params_roundtrip;
        case "of_params rejects inconsistent params"
          test_standardize_of_params_validation;
        case "standardize_row and response_mean" test_standardize_row ] );
    ( "core.prior",
      [ case "R(r0)" test_r_of_r0;
        case "validation" test_prior_validation;
        case "active set" test_active_set ] );
    ( "core.posterior",
      [ case "matches dense reference" test_posterior_matches_naive;
        case "zero lambda inactive" test_posterior_zero_lambda_inactive;
        case "prior shrinkage" test_posterior_shrinks_with_small_lambda;
        case "interpolation limit" test_posterior_interpolates_as_sigma_to_zero;
        case "coefficients layout" test_coefficients_layout ] );
    ( "core.em",
      [ case "nlml decreases" test_em_nlml_decreases;
        case "prunes to support" test_em_prunes_to_support;
        case "fixed R ablation" test_em_fixed_r;
        case "sigma floor" test_em_sigma_update_floor;
        case "R stays PD" test_em_r_stays_pd;
        case "min_active" test_em_min_active;
        case "prune: all-zero lambda deterministic" test_prune_all_zero_lambda;
        case "prune: tied lambda deterministic" test_prune_tied_lambda_deterministic;
        case "prune: single column" test_prune_single_column ] );
    ( "core.init",
      [ case "finds support" test_init_finds_support;
        case "prior shape" test_init_prior_shape;
        case "greedy pass errors" test_greedy_pass_errors_shape;
        case "incremental consistency" test_greedy_pass_incremental_matches_posterior;
        case "pinned golden (1 and 2 domains)" test_init_golden ] );
    ( "core.cbmf",
      [ slow_case "beats S-OMP at small N" test_cbmf_beats_somp_small_n;
        case "info populated" test_cbmf_info_populated;
        case "fit_seconds is wall time (2 domains)" test_cbmf_fit_seconds_wall;
        case "predict_state" test_cbmf_predict_state;
        case "independent config" test_cbmf_independent_config_runs;
        slow_case "correlation helps" test_cbmf_correlation_helps ] ) ]
