open Cbmf_linalg
open Cbmf_circuit
open Cbmf_model
open Cbmf_core

type method_ = [ `Cbmf | `Uncorrelated | `Somp_ols ]

let method_name = function
  | `Cbmf -> "cbmf"
  | `Uncorrelated -> "uncorrelated"
  | `Somp_ols -> "somp_ols"

type cell = {
  spec : Synthetic.spec;
  n_per_state : int;
  method_ : method_;
  f1 : float;
  precision : float;
  recall : float;
  coeff_rmse : float;
  test_error : float;
  path : string;
  seconds : float;
}

(* Recovery grids run dozens of fits; the grids below are sized to the
   spec (the planted support bounds the useful θ) so a grid finishes in
   seconds while still letting the initializer choose r0 and θ. *)
let cbmf_config (spec : Synthetic.spec) =
  {
    Cbmf.init =
      {
        Init.r0_grid = [| 0.0; 0.5; 0.9 |];
        sigma0_grid = [| 0.1 |];
        theta_max = spec.Synthetic.active_per_state + 3;
        n_folds = 2;
        lambda_off = 1e-7;
      };
    em = { Em.default_config with max_iter = 10; tol = 1e-4 };
  }

let uncorrelated_config (spec : Synthetic.spec) =
  let c = cbmf_config spec in
  {
    Cbmf.init = { c.Cbmf.init with Init.r0_grid = [| 0.0 |] };
    em = { c.Cbmf.em with Em.update_r = false };
  }

let path_name : Posterior.path -> string = function
  | `Dual -> "dual"
  | `Primal -> "primal"

let posterior_path (gt : Synthetic.t) (data : Dataset.t) =
  let spec = gt.Synthetic.spec in
  let lambda = Array.make spec.Synthetic.m 0.0 in
  Array.iteri
    (fun i col -> lambda.(col) <- gt.Synthetic.lambda.(i))
    gt.Synthetic.support;
  let prior =
    Prior.create ~lambda ~r:(Mat.copy gt.Synthetic.r)
      ~sigma0:(Float.max spec.Synthetic.noise_sigma 0.01)
  in
  let p =
    Posterior.compute ~need_sigma:false ~path:`Auto data prior
      ~active:gt.Synthetic.support
  in
  path_name p.Posterior.path

(* The constant column never belongs to a planted support (it models
   the intercept the standardizer absorbs), so it is excluded from
   every estimated support before scoring. *)
let nonconstant support =
  Array.of_seq (Seq.filter (fun j -> j > 0) (Array.to_seq support))

let score ~(truth : Synthetic.t) ~test ~estimate ~coeffs =
  let precision, recall =
    Metrics.support_precision_recall ~truth:truth.Synthetic.support ~estimate
  in
  let f1 = Metrics.support_f1 ~truth:truth.Synthetic.support ~estimate in
  let coeff_rmse =
    Metrics.coeffs_rmse ~truth:truth.Synthetic.coeffs ~estimate:coeffs
  in
  let test_error = Metrics.coeffs_error_pooled ~coeffs test in
  (precision, recall, f1, coeff_rmse, test_error)

let run_method ~(truth : Synthetic.t) ~train ~test method_ =
  let spec = truth.Synthetic.spec in
  let t0 = Unix.gettimeofday () in
  let estimate, coeffs, path =
    match method_ with
    | (`Cbmf | `Uncorrelated) as m ->
        let config =
          match m with
          | `Cbmf -> cbmf_config spec
          | `Uncorrelated -> uncorrelated_config spec
        in
        let model = Cbmf.fit ~config train in
        let view = Cbmf.fitted_view model in
        ( nonconstant (Cbmf.active_raw view),
          model.Cbmf.coeffs,
          posterior_path truth train )
    | `Somp_ols ->
        let n_terms =
          Int.min
            (spec.Synthetic.active_per_state + 1)
            (train.Dataset.n_samples - 1)
          |> Int.max 1
        in
        let r = Somp.fit train ~n_terms in
        (nonconstant r.Somp.support, r.Somp.coeffs, "-")
  in
  let seconds = Unix.gettimeofday () -. t0 in
  let precision, recall, f1, coeff_rmse, test_error =
    score ~truth ~test ~estimate ~coeffs
  in
  {
    spec;
    n_per_state = train.Dataset.n_samples;
    method_;
    f1;
    precision;
    recall;
    coeff_rmse;
    test_error;
    path;
    seconds;
  }

let run_grid ?(n_test = 30) ?(methods = [ `Cbmf; `Uncorrelated; `Somp_ols ])
    ~specs ~budgets () =
  let cells = ref [] in
  Array.iter
    (fun spec ->
      let truth = Synthetic.truth spec in
      let max_budget = Array.fold_left Int.max 1 budgets in
      let full = Synthetic.dataset truth ~n_per_state:max_budget in
      let test = Synthetic.test_dataset truth ~n_per_state:n_test in
      Array.iter
        (fun budget ->
          (* Prefix nesting: the smaller budget IS the first rows of the
             larger one, like replaying a stored simulation archive. *)
          let train = Dataset.truncate_samples full ~n:budget in
          List.iter
            (fun m -> cells := run_method ~truth ~train ~test m :: !cells)
            methods)
        budgets)
    specs;
  Array.of_list (List.rev !cells)

let table_spec =
  {
    Synthetic.k = 12;
    m = 31;
    d = 15;
    active_per_state = 4;
    rho = 0.9;
    noise_sigma = 0.05;
    density = 0.2;
    seed = 5;
  }

let table () =
  run_grid ~n_test:25
    ~methods:[ `Cbmf; `Uncorrelated ]
    ~specs:[| table_spec |] ~budgets:[| 4; 6; 8 |] ()

let pp_cells fmt cells =
  Format.fprintf fmt "%-6s %-4s %-6s %-13s %6s %6s %6s %9s %9s %7s %8s@."
    "K" "d" "n/st" "method" "F1" "prec" "recall" "coef_rmse" "test_err"
    "path" "sec";
  Array.iter
    (fun c ->
      Format.fprintf fmt "%-6d %-4d %-6d %-13s %6.3f %6.3f %6.3f %9.4f %9.4f %7s %8.3f@."
        c.spec.Synthetic.k c.spec.Synthetic.d c.n_per_state
        (method_name c.method_) c.f1 c.precision c.recall c.coeff_rmse
        c.test_error c.path c.seconds)
    cells
