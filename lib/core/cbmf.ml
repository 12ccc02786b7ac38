open Cbmf_linalg
open Cbmf_model

type config = { init : Init.config; em : Em.config }

let default_config = { init = Init.default_config; em = Em.default_config }

let fast_config =
  {
    init =
      {
        Init.r0_grid = [| 0.5; 0.9 |];
        sigma0_grid = [| 0.1 |];
        theta_max = 24;
        n_folds = 3;
        lambda_off = 1e-7;
      };
    em = { Em.default_config with max_iter = 15; tol = 1e-3 };
  }

let independent_config =
  {
    init = { Init.default_config with r0_grid = [| 0.0 |] };
    em = { Em.default_config with update_r = false };
  }

let init_only_config =
  { default_config with em = { Em.default_config with max_iter = 1 } }

type info = {
  r0 : float;
  sigma0_init : float;
  theta : int;
  init_cv_error : float;
  em_iterations : int;
  em_converged : bool;
  nlml_history : float array;
  final_active : int;
  final_sigma0 : float;
  final_r : Mat.t;
  fit_seconds : float;
}

type fitted = {
  std : Standardize.params;
  active : int array;
  mu : Mat.t;
  lambda : Vec.t;
  r : Mat.t;
  sigma0 : float;
  cov : Mat.t array;
}

type model = {
  coeffs : Mat.t;
  info : info;
  uncertainty : state:int -> Vec.t -> float * float;
  view : fitted Lazy.t;
}

let fit ?(config = default_config) (d : Dataset.t) =
  let t0 = Unix.gettimeofday () in
  let transform, std = Standardize.fit d in
  let init = Init.run ~config:config.init std in
  (* On standardized data the response has unit pooled variance, so the
     initializer's held-out relative error is directly an estimate of
     the noise floor in σ0 units.  The floor binds only when
     [update_sigma0] is set: it then keeps eq. 31's σ0 update from
     collapsing into interpolation when the effective parameter count
     (θ·K under a strong R) exceeds N·K.  By default EM keeps the
     initializer's cross-validated σ0 and never reads the floor. *)
  let em_config =
    {
      config.em with
      Em.min_sigma0 =
        Float.max config.em.Em.min_sigma0 (0.9 *. init.Init.cv_error);
    }
  in
  let prior, post, trace = Em.run ~config:em_config std init.Init.prior in
  let coeffs_std = Posterior.coefficients post in
  let coeffs = Standardize.unstandardize_coeffs transform coeffs_std in
  let y_scale = Standardize.response_scale transform in
  let sigma0 = prior.Prior.sigma0 in
  let uncertainty ~state raw_row =
    let b = Standardize.standardize_row transform ~state raw_row in
    let mean_std, var_std = post.Posterior.predictive ~state b in
    let mean = Standardize.response_mean transform state +. (y_scale *. mean_std) in
    let sd = y_scale *. sqrt (var_std +. (sigma0 *. sigma0)) in
    (mean, sd)
  in
  let info =
    {
      r0 = init.Init.r0;
      sigma0_init = init.Init.sigma0;
      theta = init.Init.theta;
      init_cv_error = init.Init.cv_error;
      em_iterations = trace.Em.iterations;
      em_converged = trace.Em.converged;
      nlml_history = trace.Em.nlml_history;
      final_active = Array.length post.Posterior.active;
      final_sigma0 = prior.Prior.sigma0;
      final_r = Mat.copy prior.Prior.r;
      fit_seconds = Unix.gettimeofday () -. t0;
    }
  in
  let view =
    lazy
      (let active = Array.copy post.Posterior.active in
       let k = (Standardize.params transform).Standardize.n_states in
       {
         std = Standardize.params transform;
         active;
         mu =
           Mat.init (Array.length active) k (fun j s ->
               Mat.get post.Posterior.mu active.(j) s);
         lambda = Array.map (fun j -> prior.Prior.lambda.(j)) active;
         r = Mat.copy prior.Prior.r;
         sigma0 = prior.Prior.sigma0;
         cov = post.Posterior.state_cov ();
       })
  in
  { coeffs; info; uncertainty; view }

let fitted_view model = Lazy.force model.view

let active_raw (f : fitted) =
  let raw = Array.map (fun j -> f.std.Standardize.kept.(j)) f.active in
  Array.sort compare raw;
  raw

let predict_state model ~design ~state =
  Mat.mat_vec design (Mat.row model.coeffs state)

let test_error model (d : Dataset.t) =
  Metrics.coeffs_error_pooled ~coeffs:model.coeffs d
