(* Ground-truth recovery: on a strongly correlated workload (rho = 0.9)
   with a low sample budget, exploiting cross-state correlation must
   recover the planted support at least as well as the uncorrelated
   ablation — the paper's central claim, checked against a truth no
   physical testbench can expose. *)

open Helpers
module Synthetic = Cbmf_circuit.Synthetic
module Recovery = Cbmf_experiments.Recovery
module Metrics = Cbmf_model.Metrics

let spec = Recovery.table_spec

let mean xs = Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let cells_of method_ cells =
  Array.of_list
    (List.filter (fun c -> c.Recovery.method_ = method_) (Array.to_list cells))

let test_metrics () =
  let p, r =
    Metrics.support_precision_recall ~truth:[| 2; 5; 9 |] ~estimate:[| 2; 9; 11; 14 |]
  in
  check_float ~tol:1e-12 "precision" 0.5 p;
  check_float ~tol:1e-12 "recall" (2.0 /. 3.0) r;
  check_float ~tol:1e-12 "f1"
    (2.0 *. 0.5 *. (2.0 /. 3.0) /. (0.5 +. (2.0 /. 3.0)))
    (Metrics.support_f1 ~truth:[| 2; 5; 9 |] ~estimate:[| 2; 9; 11; 14 |]);
  check_float ~tol:1e-12 "perfect" 1.0
    (Metrics.support_f1 ~truth:[| 1; 2 |] ~estimate:[| 2; 1 |]);
  check_float ~tol:1e-12 "disjoint" 0.0
    (Metrics.support_f1 ~truth:[| 1 |] ~estimate:[| 2 |]);
  check_float ~tol:1e-12 "empty estimate" 0.0
    (Metrics.support_f1 ~truth:[| 1 |] ~estimate:[||])

let test_posterior_path_crossover () =
  (* Auto picks primal iff aK < NK strictly: with a=4, K=12 the active
     block is 48 — 3 samples/state (NK=36) must go dual, 6 (NK=72)
     primal. *)
  let t = Synthetic.truth spec in
  let d3 = Synthetic.dataset t ~n_per_state:3 in
  let d6 = Synthetic.dataset t ~n_per_state:6 in
  check_true "aK >= NK goes dual" (Recovery.posterior_path t d3 = "dual");
  check_true "aK < NK goes primal" (Recovery.posterior_path t d6 = "primal")

(* [Recovery.table], recorded at 1 and 2 domains: (budget, method,
   F1, precision, recall, coeff_rmse, test_error). *)
let table_golden =
  [ (4, `Cbmf, 0.8, 0.6666666666666666, 1.0, 0.14079, 0.21349);
    (4, `Uncorrelated, 0.4, 1.0, 0.25, 0.79892, 1.40328);
    (6, `Cbmf, 0.6666666666666665, 0.6, 0.75, 0.21907, 0.35207);
    (6, `Uncorrelated, 0.6, 0.5, 0.75, 0.27773, 0.47372);
    (8, `Cbmf, 0.8, 0.6666666666666666, 1.0, 0.03437, 0.05265);
    (8, `Uncorrelated, 0.8, 0.6666666666666666, 1.0, 0.04478, 0.06493) ]

let test_cbmf_beats_uncorrelated () =
  (* The acceptance criterion: on the rho = 0.9 low-budget grid, C-BMF
     support-recovery F1 is at least the uncorrelated baseline's.  The
     whole table is pinned too: supports exactly, the continuous
     scores to 1e-4. *)
  let tables =
    Fun.protect
      ~finally:(fun () ->
        Cbmf_parallel.Pool.set_default_size (Cbmf_parallel.Pool.env_domains ()))
      (fun () ->
        List.map
          (fun domains ->
            Cbmf_parallel.Pool.set_default_size domains;
            (domains, Recovery.table ()))
          [ 1; 2 ])
  in
  List.iter
    (fun (domains, cells) ->
      check_int "grid size" 6 (Array.length cells);
      List.iteri
        (fun i (budget, method_, f1, precision, recall, rmse, test_error) ->
          let c = cells.(i) in
          let name field =
            Printf.sprintf "%d domain(s), %s at %d/state: %s" domains
              (Recovery.method_name method_) budget field
          in
          check_true (name "cell")
            (c.Recovery.n_per_state = budget && c.Recovery.method_ = method_);
          check_true (name "F1") (Float.equal c.Recovery.f1 f1);
          check_true (name "precision")
            (Float.equal c.Recovery.precision precision);
          check_true (name "recall") (Float.equal c.Recovery.recall recall);
          check_float ~tol:1e-4 (name "coeff_rmse") rmse c.Recovery.coeff_rmse;
          check_float ~tol:1e-4 (name "test_error") test_error
            c.Recovery.test_error)
        table_golden)
    tables;
  let cells = List.assoc 1 tables in
  let f1_cbmf = mean (Array.map (fun c -> c.Recovery.f1) (cells_of `Cbmf cells)) in
  let f1_unc =
    mean (Array.map (fun c -> c.Recovery.f1) (cells_of `Uncorrelated cells))
  in
  check_true
    (Printf.sprintf "cbmf F1 %.3f >= uncorrelated F1 %.3f" f1_cbmf f1_unc)
    (f1_cbmf >= f1_unc);
  check_true "cbmf recovers most of the support" (f1_cbmf >= 0.6);
  Array.iter
    (fun c ->
      check_true "coeff_rmse finite" (Float.is_finite c.Recovery.coeff_rmse);
      check_true "test_error finite" (Float.is_finite c.Recovery.test_error);
      check_true "path recorded"
        (c.Recovery.path = "dual" || c.Recovery.path = "primal"))
    cells

let test_budget_improves_recovery () =
  (* More simulations can only help: at a generous budget the C-BMF
     fit nails the support and the held-out error approaches the
     planted noise floor. *)
  let t = Synthetic.truth spec in
  let train = Synthetic.dataset t ~n_per_state:24 in
  let test = Synthetic.test_dataset t ~n_per_state:25 in
  let c = Recovery.run_method ~truth:t ~train ~test `Cbmf in
  check_true
    (Printf.sprintf "high budget F1 %.3f" c.Recovery.f1)
    (c.Recovery.f1 >= 0.85);
  check_true
    (Printf.sprintf "high budget test error %.3f" c.Recovery.test_error)
    (c.Recovery.test_error < 0.15)

let test_somp_baseline () =
  let t = Synthetic.truth spec in
  let train = Synthetic.dataset t ~n_per_state:8 in
  let test = Synthetic.test_dataset t ~n_per_state:25 in
  let c = Recovery.run_method ~truth:t ~train ~test `Somp_ols in
  check_true "somp path unset" (c.Recovery.path = "-");
  check_true "somp f1 sane" (c.Recovery.f1 >= 0.0 && c.Recovery.f1 <= 1.0);
  check_true "somp test error finite" (Float.is_finite c.Recovery.test_error);
  check_int "budget recorded" 8 c.Recovery.n_per_state

let test_deterministic () =
  let t = Synthetic.truth spec in
  let train = Synthetic.dataset t ~n_per_state:5 in
  let test = Synthetic.test_dataset t ~n_per_state:10 in
  let a = Recovery.run_method ~truth:t ~train ~test `Cbmf in
  let b = Recovery.run_method ~truth:t ~train ~test `Cbmf in
  check_true "recovery cells deterministic"
    (Int64.equal (Int64.bits_of_float a.Recovery.f1) (Int64.bits_of_float b.Recovery.f1)
    && Int64.equal
         (Int64.bits_of_float a.Recovery.coeff_rmse)
         (Int64.bits_of_float b.Recovery.coeff_rmse)
    && a.Recovery.path = b.Recovery.path)

let suite =
  [ ( "recovery",
      [ case "metrics" test_metrics;
        case "posterior_path_crossover" test_posterior_path_crossover;
        slow_case "cbmf_beats_uncorrelated" test_cbmf_beats_uncorrelated;
        slow_case "budget_improves_recovery" test_budget_improves_recovery;
        case "somp_baseline" test_somp_baseline;
        case "deterministic" test_deterministic ] ) ]
