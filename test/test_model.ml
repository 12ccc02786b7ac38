open Cbmf_linalg
open Cbmf_model
open Helpers

(* Small synthetic multi-state dataset with planted sparse truth. *)
let planted ?(k = 6) ?(n = 30) ?(m = 40) ?(noise = 0.01) ?(seed = 5) () =
  let rng = Cbmf_prob.Rng.create seed in
  let support = [| 0; 7; 19 |] in
  (* column 0 is constant *)
  let coef s j =
    match j with
    | 0 -> 3.0
    | 7 -> 1.0 +. (0.1 *. float_of_int s)
    | 19 -> -0.5
    | _ -> 0.0
  in
  ignore support;
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

(* --- Dataset --- *)

let test_dataset_shapes () =
  let d = planted () in
  check_int "states" 6 d.Dataset.n_states;
  check_int "samples" 30 d.Dataset.n_samples;
  check_int "basis" 40 d.Dataset.n_basis;
  check_int "total" 180 (Dataset.total_samples d)

let test_dataset_truncate () =
  let d = planted () in
  let t = Dataset.truncate_samples d ~n:10 in
  check_int "truncated" 10 t.Dataset.n_samples;
  check_float "prefix" d.Dataset.response.(2).(3) t.Dataset.response.(2).(3)

let test_dataset_fold_split () =
  let d = planted ~n:10 () in
  let train, test = Dataset.split_fold d ~n_folds:5 ~fold:0 in
  check_int "train" 8 train.Dataset.n_samples;
  check_int "test" 2 test.Dataset.n_samples;
  (* Folds partition the rows: over all folds each row appears once. *)
  let seen = Array.make 10 0 in
  for fold = 0 to 4 do
    let _, te = Dataset.split_fold d ~n_folds:5 ~fold in
    for i = 0 to te.Dataset.n_samples - 1 do
      (* identify original row by its response value *)
      let y = te.Dataset.response.(0).(i) in
      Array.iteri
        (fun orig v -> if v = y then seen.(orig) <- seen.(orig) + 1)
        d.Dataset.response.(0)
    done
  done;
  Array.iter (fun c -> check_int "row covered once" 1 c) seen

let test_dataset_select_rows () =
  let d = planted ~n:5 () in
  let sel = Dataset.select_rows d (Array.make 6 [| 4; 0 |]) in
  check_int "rows" 2 sel.Dataset.n_samples;
  check_float "reorder" d.Dataset.response.(1).(4) sel.Dataset.response.(1).(0)

let test_dataset_select_states () =
  let d = planted ~k:12 () in
  let sub = Dataset.select_states d [| 2; 7; 11 |] in
  check_int "states" 3 sub.Dataset.n_states;
  check_float "copied response" d.Dataset.response.(7).(3) sub.Dataset.response.(1).(3);
  (* A copy, not a view: writing the subset leaves the source alone. *)
  let y = d.Dataset.response.(7).(3) and b = Mat.get d.Dataset.design.(7) 3 4 in
  sub.Dataset.response.(1).(3) <- y +. 1.0;
  Mat.set sub.Dataset.design.(1) 3 4 (b +. 1.0);
  check_float "source response kept" y d.Dataset.response.(7).(3);
  check_float "source design kept" b (Mat.get d.Dataset.design.(7) 3 4)

let test_dataset_mismatch_rejected () =
  let d = planted ~n:5 () in
  match
    Dataset.create
      ~design:d.Dataset.design
      ~response:(Array.map (fun y -> Array.sub y 0 3) d.Dataset.response)
  with
  | _ -> Alcotest.fail "expected assert failure"
  | exception Assert_failure _ -> ()

(* --- Metrics --- *)

let test_metrics_rmse () =
  let p = Vec.of_list [ 1.0; 2.0 ] and a = Vec.of_list [ 1.0; 4.0 ] in
  check_float ~tol:1e-12 "rmse" (sqrt 2.0) (Metrics.rmse ~predicted:p ~actual:a)

let test_metrics_relative () =
  let a = Vec.of_list [ 3.0; 4.0 ] in
  check_float ~tol:1e-12 "relative zero" 0.0
    (Metrics.relative_rms ~predicted:(Vec.copy a) ~actual:a);
  check_float ~tol:1e-12 "relative" 1.0
    (Metrics.relative_rms ~predicted:(Vec.create 2) ~actual:a);
  check_float "percent" 12.5 (Metrics.percent 0.125)

let test_metrics_pooled () =
  let a1 = Vec.of_list [ 1.0; 0.0 ] and a2 = Vec.of_list [ 0.0; 2.0 ] in
  let p1 = Vec.of_list [ 0.0; 0.0 ] and p2 = Vec.of_list [ 0.0; 2.0 ] in
  (* pooled = sqrt(1/(1+4)) *)
  check_float ~tol:1e-12 "pooled" (sqrt 0.2)
    (Metrics.relative_rms_pooled [| (p1, a1); (p2, a2) |])

let test_metrics_r2 () =
  let a = Vec.of_list [ 1.0; 2.0; 3.0 ] in
  check_float ~tol:1e-12 "perfect" 1.0 (Metrics.r_squared ~predicted:(Vec.copy a) ~actual:a);
  check_float ~tol:1e-12 "mean model" 0.0
    (Metrics.r_squared ~predicted:(Vec.make 3 2.0) ~actual:a)

(* --- OLS --- *)

let test_ols_recovers () =
  let d = planted ~n:50 ~noise:0.0 () in
  let coeffs = Ols.fit d in
  check_float ~tol:1e-8 "exact recovery" 0.0 (Metrics.coeffs_error_pooled ~coeffs d);
  check_float ~tol:1e-6 "known coefficient" 1.2 (Mat.get coeffs 2 7)

let test_ols_on_support () =
  let d = planted ~noise:0.0 () in
  let coeffs = Ols.fit_on_support d ~support:[| 0; 7; 19 |] in
  check_float ~tol:1e-8 "support recovery" 0.0 (Metrics.coeffs_error_pooled ~coeffs d);
  check_float "off support zero" 0.0 (Mat.get coeffs 0 3)

(* --- S-OMP --- *)

let test_somp_shared_support () =
  let d = planted ~noise:0.01 () in
  let r = Somp.fit d ~n_terms:3 in
  let sorted = Array.copy r.Somp.support in
  Array.sort compare sorted;
  check_true "shared support" (sorted = [| 0; 7; 19 |])

let test_somp_beats_per_state_at_small_n () =
  (* With few samples per state, pooling the selection across states
     finds the true support more reliably than per-state OMP (S-OMP
     on a one-state dataset). *)
  let d = planted ~k:8 ~n:8 ~m:60 ~noise:0.05 ~seed:11 () in
  let test_data = planted ~k:8 ~n:50 ~m:60 ~noise:0.05 ~seed:12 () in
  let r = Somp.fit d ~n_terms:3 in
  let somp_err = Metrics.coeffs_error_pooled ~coeffs:r.Somp.coeffs test_data in
  let per_state_err =
    let coeffs = Mat.create 8 60 in
    for s = 0 to 7 do
      let o = Somp.fit (Dataset.select_states d [| s |]) ~n_terms:3 in
      Mat.set_row coeffs s (Mat.row o.Somp.coeffs 0)
    done;
    Metrics.coeffs_error_pooled ~coeffs test_data
  in
  check_true "somp <= per-state omp" (somp_err <= per_state_err +. 1e-6)

let test_somp_select_next_excludes () =
  let d = planted ~noise:0.0 () in
  let residual = Array.map Vec.copy d.Dataset.response in
  let exclude = Array.make d.Dataset.n_basis false in
  let first = Somp.select_next d ~residual ~exclude in
  exclude.(first) <- true;
  let second = Somp.select_next d ~residual ~exclude in
  check_true "different" (first <> second)

let test_somp_cv () =
  let d = planted ~noise:0.02 ~n:20 () in
  let r, chosen = Somp.fit_cv d ~n_folds:4 ~candidate_terms:[| 1; 3; 8 |] in
  check_true "chosen sane" (chosen = 3 || chosen = 8);
  check_true "support size" (Array.length r.Somp.support >= 3)

(* --- Additional dataset / metrics / OLS properties --- *)

let test_dataset_response_norm () =
  let d = planted ~k:3 ~n:7 () in
  let stacked = Array.concat (Array.to_list d.Dataset.response) in
  check_float ~tol:1e-12 "norm of the stacked responses" (Vec.norm2 stacked)
    (Dataset.response_norm d);
  (* It is the pooled error's denominator: the zero model scores 1. *)
  check_float ~tol:1e-12 "zero model" 1.0
    (Metrics.coeffs_error_pooled ~coeffs:(Mat.create 3 d.Dataset.n_basis) d)

let test_metrics_max_abs () =
  let p = Vec.of_list [ 1.0; 2.0; -3.0 ] and a = Vec.of_list [ 1.5; 2.0; 1.0 ] in
  check_float "largest deviation" 4.0 (Metrics.max_abs_error ~predicted:p ~actual:a);
  check_float "exact fit" 0.0 (Metrics.max_abs_error ~predicted:a ~actual:a)

let test_metrics_coeffs_rmse () =
  let truth = Mat.of_arrays [| [| 1.0; 0.0 |]; [| 0.0; 2.0 |] |] in
  let estimate = Mat.of_arrays [| [| 1.0; 1.0 |]; [| 0.0; 0.0 |] |] in
  (* Squared entry errors 0, 1, 0, 4. *)
  check_float ~tol:1e-12 "entry-wise rms" (sqrt 1.25)
    (Metrics.coeffs_rmse ~truth ~estimate);
  check_float "identical" 0.0 (Metrics.coeffs_rmse ~truth ~estimate:truth);
  check_raises_invalid "shape mismatch" (fun () ->
      Metrics.coeffs_rmse ~truth ~estimate:(Mat.create 2 3))

let test_metrics_predict_state () =
  (* The planted truth reproduces the noiseless responses state by
     state. *)
  let d = planted ~k:3 ~n:6 ~noise:0.0 () in
  let truth =
    Mat.init 3 d.Dataset.n_basis (fun s j ->
        match j with
        | 0 -> 3.0
        | 7 -> 1.0 +. (0.1 *. float_of_int s)
        | 19 -> -0.5
        | _ -> 0.0)
  in
  for s = 0 to 2 do
    vec_close ~tol:1e-12 "ŷ_k = B_k·c_k = y_k" d.Dataset.response.(s)
      (Metrics.predict_state ~coeffs:truth d s)
  done

let test_ols_column_scaling () =
  (* Least squares is equivariant under column scaling: doubling a
     column halves its coefficient and leaves the others. *)
  let d = planted ~n:50 ~noise:0.05 () in
  let design = d.Dataset.design.(1) and response = d.Dataset.response.(1) in
  let c = Ols.fit_vec ~design ~response in
  let scaled = Mat.mapi (fun _ j x -> if j = 7 then 2.0 *. x else x) design in
  let c2 = Ols.fit_vec ~design:scaled ~response in
  check_float ~tol:1e-10 "scaled column" (c.(7) /. 2.0) c2.(7);
  c.(7) <- c.(7) /. 2.0;
  vec_close ~tol:1e-10 "other columns" c c2

(* S-OMP on a one-state dataset is plain OMP: the per-state greedy
   baseline. *)
let one_state d s = Dataset.select_states d [| s |]

let test_somp_one_state_exact () =
  let d = one_state (planted ~noise:0.0 ()) 0 in
  let r = Somp.fit d ~n_terms:3 in
  let sorted = Array.copy r.Somp.support in
  Array.sort compare sorted;
  check_true "support found" (sorted = [| 0; 7; 19 |]);
  check_float ~tol:1e-8 "coefficient" (-0.5) (Mat.get r.Somp.coeffs 0 19)

let test_somp_one_state_prediction () =
  let d = one_state (planted ~noise:0.01 ()) 1 in
  let r = Somp.fit d ~n_terms:3 in
  let pred = Metrics.predict_state ~coeffs:r.Somp.coeffs d 0 in
  check_true "fit quality"
    (Metrics.relative_rms ~predicted:pred ~actual:d.Dataset.response.(0) < 0.05)

let test_somp_one_state_cv () =
  let d = one_state (planted ~noise:0.02 ~n:40 ()) 0 in
  let _, chosen = Somp.fit_cv d ~n_folds:4 ~candidate_terms:[| 1; 3; 10; 20 |] in
  check_true "neither extreme" (chosen >= 3 && chosen <= 10)

let suite =
  [ ( "model.dataset",
      [ case "shapes" test_dataset_shapes;
        case "truncate" test_dataset_truncate;
        case "fold split partitions" test_dataset_fold_split;
        case "select_rows" test_dataset_select_rows;
        case "select_states" test_dataset_select_states;
        case "shape mismatch rejected" test_dataset_mismatch_rejected;
        case "response_norm" test_dataset_response_norm ] );
    ( "model.metrics",
      [ case "rmse" test_metrics_rmse;
        case "relative" test_metrics_relative;
        case "pooled" test_metrics_pooled;
        case "r-squared" test_metrics_r2;
        case "max_abs_error" test_metrics_max_abs;
        case "coeffs_rmse" test_metrics_coeffs_rmse;
        case "predict_state" test_metrics_predict_state ] );
    ( "model.ols",
      [ case "recovers planted model" test_ols_recovers;
        case "fit on support" test_ols_on_support;
        case "column scaling equivariance" test_ols_column_scaling ] );
    ( "model.somp",
      [ case "shared support" test_somp_shared_support;
        case "beats per-state at small N" test_somp_beats_per_state_at_small_n;
        case "select_next exclusion" test_somp_select_next_excludes;
        case "cv" test_somp_cv;
        case "one state: exact recovery" test_somp_one_state_exact;
        case "one state: prediction" test_somp_one_state_prediction;
        case "one state: cv sparsity" test_somp_one_state_cv ] ) ]
