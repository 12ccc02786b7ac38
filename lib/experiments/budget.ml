open Cbmf_circuit
open Cbmf_model
open Cbmf_core
module Loop = Cbmf_active.Loop
module Sim = Cbmf_active.Sim
module Acquire = Cbmf_active.Acquire

(* Accuracy vs simulated samples: variance-driven acquisition against
   the fixed-grid (iid) baseline, at exactly matched simulator-call
   budgets.  Both arms share one fitting route — cold EM from the same
   all-ones prior, same config — so the acquisition policy is the only
   thing that differs; the paper prices simulator hours, so the x-axis
   is simulator calls, never fit time. *)

type point = {
  n_per_state : int;
  n_total : int;
  f1 : float;
  precision : float;
  recall : float;
  coeff_rmse : float;
  test_error : float;
}

type series = { label : string; points : point array }

type summary = {
  target_f1 : float;  (** baseline support-F1 at the largest budget *)
  target_rmse : float;  (** baseline coefficient RMSE at the largest budget *)
  grid_reach : int option;  (** smallest grid budget hitting both targets *)
  active_reach : int option;  (** same for the active loop *)
  savings_pct : float option;
      (** simulated-sample savings of active vs grid, in percent *)
}

type result = {
  spec : Synthetic.spec;
  grid : series;
  active : series;
  summary : summary;
}

(* The intercept column is absorbed by any sane support scorer (it is
   never planted), mirroring [Recovery]. *)
let nonconstant support =
  Array.of_seq (Seq.filter (fun j -> j > 0) (Array.to_seq support))

(* EM budget shared by both arms. *)
let default_em = { Em.default_config with Em.max_iter = 15; tol = 1e-4 }

let prior0_of_spec (spec : Synthetic.spec) =
  Prior.create
    ~lambda:(Array.make spec.Synthetic.m 1.0)
    ~r:(Prior.r_of_r0 ~n_states:spec.Synthetic.k ~r0:0.5)
    ~sigma0:(Float.max spec.Synthetic.noise_sigma 0.05)

let score_fit ~(truth : Synthetic.t) ~test ~(coeffs : Cbmf_linalg.Mat.t)
    ~active ~n_per_state =
  let estimate = nonconstant active in
  let precision, recall =
    Metrics.support_precision_recall ~truth:truth.Synthetic.support ~estimate
  in
  {
    n_per_state;
    n_total = n_per_state * truth.Synthetic.spec.Synthetic.k;
    f1 = Metrics.support_f1 ~truth:truth.Synthetic.support ~estimate;
    precision;
    recall;
    coeff_rmse =
      Metrics.coeffs_rmse ~truth:truth.Synthetic.coeffs ~estimate:coeffs;
    test_error = Metrics.coeffs_error_pooled ~coeffs test;
  }

(* Fixed-grid arm: cold EM on the first [b] rows of one iid archive —
   prefix nesting makes budget b literally the first b samples of
   budget b′ > b, the stored-simulation replay of [Recovery]. *)
let run_grid ~em ~truth ~test ~prior0 ~budgets =
  let b_max = Array.fold_left Int.max 1 budgets in
  let full = Synthetic.dataset truth ~n_per_state:b_max in
  let points =
    Array.map
      (fun b ->
        let train = Dataset.truncate_samples full ~n:b in
        let prior, post, _ = Em.run ~config:em train prior0 in
        let active =
          Array.of_seq
            (Seq.filter
               (fun j -> prior.Prior.lambda.(j) > 0.0)
               (Array.to_seq post.Posterior.active))
        in
        score_fit ~truth ~test ~coeffs:(Posterior.coefficients post) ~active
          ~n_per_state:b)
      budgets
  in
  { label = "fixed-grid"; points }

(* Active arm: one loop run with a checkpoint at every budget.
   [resync_every = 1] re-fits (warm-started) after every round, so a
   checkpoint's coefficients got the same EM treatment the baseline
   budget got — only the sample locations differ. *)
let run_active ~em ~truth ~prior0 ~test ~policy ~n0 ~pool_size ~budgets =
  let spec = truth.Synthetic.spec in
  let k = spec.Synthetic.k in
  let b_max = Array.fold_left Int.max 1 budgets in
  let config =
    {
      Loop.default_config with
      Loop.n0;
      rounds = b_max - n0;
      pool_size;
      policy;
      resync_every = 1;
      em;
      checkpoints = Array.map (fun b -> b * k) budgets;
    }
  in
  let res =
    Loop.run ~config ~sim:(Sim.of_synthetic truth) ~prior0:(prior0 ()) ()
  in
  let points =
    Array.map
      (fun b ->
        match
          Array.find_opt
            (fun (cp : Loop.checkpoint) -> cp.Loop.at_samples = b * k)
            res.Loop.checkpoints
        with
        | None ->
            invalid_arg
              (Printf.sprintf "Budget.run: no checkpoint at budget %d" b)
        | Some cp ->
            score_fit ~truth ~test ~coeffs:cp.Loop.cp_coeffs
              ~active:cp.Loop.cp_active ~n_per_state:b)
      budgets
  in
  ({ label = "active-" ^ Acquire.policy_name policy; points }, res)

let first_reach ~target_f1 ~target_rmse (s : series) =
  Array.fold_left
    (fun acc p ->
      match acc with
      | Some _ -> acc
      | None ->
          if p.f1 >= target_f1 -. 1e-9 && p.coeff_rmse <= target_rmse *. 1.05
          then Some p.n_per_state
          else None)
    None s.points

let summarize ~grid ~active =
  let last = grid.points.(Array.length grid.points - 1) in
  let target_f1 = last.f1 and target_rmse = last.coeff_rmse in
  let grid_reach = first_reach ~target_f1 ~target_rmse grid in
  let active_reach = first_reach ~target_f1 ~target_rmse active in
  let savings_pct =
    match (grid_reach, active_reach) with
    | Some g, Some a when g > 0 ->
        Some (100.0 *. (1.0 -. (float_of_int a /. float_of_int g)))
    | _ -> None
  in
  { target_f1; target_rmse; grid_reach; active_reach; savings_pct }

let run ?(em = default_em) ?(n0 = 4) ?(pool_size = 24)
    ?(policy = Acquire.Variance) ?(n_test = 50) ?budgets
    (spec : Synthetic.spec) =
  let budgets =
    match budgets with
    | Some b -> b
    | None -> Array.init 7 (fun i -> n0 + 2 + (2 * i))
  in
  Array.iter
    (fun b ->
      if b <= n0 then invalid_arg "Budget.run: budgets must exceed n0")
    budgets;
  let truth = Synthetic.truth spec in
  let test = Synthetic.test_dataset truth ~n_per_state:n_test in
  let prior0 () = prior0_of_spec spec in
  let grid = run_grid ~em ~truth ~test ~prior0:(prior0 ()) ~budgets in
  let active, _ =
    run_active ~em ~truth ~prior0 ~test ~policy ~n0 ~pool_size ~budgets
  in
  { spec; grid; active; summary = summarize ~grid ~active }

let pp_series fmt (s : series) =
  Array.iter
    (fun p ->
      Format.fprintf fmt "%-18s %6d %8d %6.3f %6.3f %6.3f %10.4f %10.4f@."
        s.label p.n_per_state p.n_total p.f1 p.precision p.recall p.coeff_rmse
        p.test_error)
    s.points

let pp_result fmt (r : result) =
  Format.fprintf fmt "# K=%d M=%d d=%d rho=%.2f sigma=%.2f seed=%d@."
    r.spec.Synthetic.k r.spec.Synthetic.m r.spec.Synthetic.d
    r.spec.Synthetic.rho r.spec.Synthetic.noise_sigma r.spec.Synthetic.seed;
  Format.fprintf fmt "%-18s %6s %8s %6s %6s %6s %10s %10s@." "method" "n/st"
    "n_total" "F1" "prec" "recall" "coef_rmse" "test_err";
  pp_series fmt r.grid;
  pp_series fmt r.active;
  let s = r.summary in
  Format.fprintf fmt "targets: F1 >= %.3f, rmse <= %.4f (grid at max budget)@."
    s.target_f1 s.target_rmse;
  (match (s.grid_reach, s.active_reach) with
  | Some g, Some a ->
      Format.fprintf fmt "reach: grid %d/state, active %d/state" g a
  | g, a ->
      Format.fprintf fmt "reach: grid %s, active %s"
        (match g with Some v -> string_of_int v | None -> "never")
        (match a with Some v -> string_of_int v | None -> "never"));
  match s.savings_pct with
  | Some pct -> Format.fprintf fmt " -> %.0f%% fewer simulated samples@." pct
  | None -> Format.fprintf fmt "@."
