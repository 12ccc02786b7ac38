open Cbmf_prob
open Helpers

(* --- Rng --- *)

let test_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check_true "same stream" (Rng.uint64 a = Rng.uint64 b)
  done

let test_copy_stream () =
  let a = Rng.create 7 in
  let _ = Rng.uint64 a in
  let b = Rng.copy a in
  for _ = 1 to 50 do
    check_true "copy equal" (Rng.float a = Rng.float b)
  done

let test_split_independent () =
  let a = Rng.create 9 in
  let child = Rng.split a in
  (* Different seeds give different streams with overwhelming probability. *)
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.uint64 a = Rng.uint64 child then incr same
  done;
  check_true "split diverges" (!same = 0)

let test_float_range () =
  let r = Rng.create 3 in
  for _ = 1 to 10_000 do
    let x = Rng.float r in
    check_true "in [0,1)" (x >= 0.0 && x < 1.0)
  done

let test_int_uniform () =
  let r = Rng.create 5 in
  let counts = Array.make 7 0 in
  let n = 70_000 in
  for _ = 1 to n do
    let k = Rng.int r 7 in
    counts.(k) <- counts.(k) + 1
  done;
  Array.iter
    (fun c ->
      (* Expected 10000; 5σ ≈ 480. *)
      check_true "uniform cell" (abs (c - 10_000) < 500))
    counts

let test_gaussian_moments () =
  let r = Rng.create 11 in
  let n = 200_000 in
  let xs = Array.init n (fun _ -> Rng.gaussian r) in
  check_true "mean ~ 0" (abs_float (Stats.mean xs) < 0.01);
  check_true "var ~ 1" (abs_float (Stats.variance xs -. 1.0) < 0.02);
  check_true "skew ~ 0" (abs_float (Stats.skewness xs) < 0.05);
  check_true "kurtosis ~ 0" (abs_float (Stats.kurtosis_excess xs) < 0.1)

let test_shuffle_permutation () =
  let r = Rng.create 13 in
  let p = Rng.permutation r 50 in
  let seen = Array.make 50 false in
  Array.iter (fun i -> seen.(i) <- true) p;
  check_true "is permutation" (Array.for_all Fun.id seen)

let test_derive_pure () =
  (* Addressed streams: a pure function of (base, index), whatever
     order they are materialized in, and distinct across indices. *)
  let base = Rng.seed_of (Rng.create 31) in
  let draws r = Array.init 8 (fun _ -> Rng.uint64 r) in
  let forward = Array.init 6 (fun i -> draws (Rng.derive base ~index:i)) in
  let backward = Array.init 6 (fun i -> draws (Rng.derive base ~index:(5 - i))) in
  Array.iteri
    (fun i d -> check_true "order-free" (d = backward.(5 - i)))
    forward;
  check_true "indices differ" (forward.(0) <> forward.(1));
  check_true "bases differ"
    (draws (Rng.derive (Int64.add base 1L) ~index:0) <> forward.(0));
  check_true "seed_of advances"
    (let r = Rng.create 31 in
     Rng.seed_of r <> Rng.seed_of r)

let test_uniform_range () =
  let r = Rng.create 37 in
  let xs = Array.init 20_000 (fun _ -> Rng.uniform r (-3.0) 5.0) in
  check_true "in [a, b)" (Array.for_all (fun x -> x >= -3.0 && x < 5.0) xs);
  (* Mean 1, sd 8/sqrt 12 ≈ 2.31: 0.1 is > 6 standard errors. *)
  check_true "mean ~ (a + b)/2" (abs_float (Stats.mean xs -. 1.0) < 0.1)

let test_bool_balance () =
  let r = Rng.create 41 in
  let n = 20_000 in
  let heads = ref 0 in
  for _ = 1 to n do
    if Rng.bool r then incr heads
  done;
  (* Expected 10000, sd ≈ 71. *)
  check_true "balanced" (abs (!heads - (n / 2)) < 500)

let test_gaussian_mu_sigma () =
  let r = Rng.create 43 in
  let xs = Array.init 50_000 (fun _ -> Rng.gaussian_mu_sigma r ~mu:3.0 ~sigma:0.5) in
  check_true "mean ~ mu" (abs_float (Stats.mean xs -. 3.0) < 0.01);
  check_true "sd ~ sigma" (abs_float (Stats.stddev xs -. 0.5) < 0.01);
  (* Same stream as the standard draw, shifted and scaled. *)
  let a = Rng.create 47 and b = Rng.create 47 in
  for _ = 1 to 10 do
    check_float ~tol:0.0 "affine in the standard draw"
      (3.0 +. (0.5 *. Rng.gaussian a))
      (Rng.gaussian_mu_sigma b ~mu:3.0 ~sigma:0.5)
  done

let test_shuffle_inplace () =
  let a = Array.init 40 Fun.id in
  let b = Array.copy a in
  Rng.shuffle_inplace (Rng.create 53) a;
  Rng.shuffle_inplace (Rng.create 53) b;
  check_true "deterministic per seed" (a = b);
  check_true "reorders" (a <> Array.init 40 Fun.id);
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check_true "same elements" (sorted = Array.init 40 Fun.id);
  let one = [| 7 |] in
  Rng.shuffle_inplace (Rng.create 53) one;
  check_true "singleton" (one = [| 7 |])

(* --- Gaussian distribution functions --- *)

let test_erf_values () =
  check_float ~tol:1e-6 "erf 0" 0.0 (Gaussian.erf 0.0);
  check_float ~tol:2e-7 "erf 1" 0.8427007929 (Gaussian.erf 1.0);
  check_float ~tol:2e-7 "erf -1" (-0.8427007929) (Gaussian.erf (-1.0));
  check_float ~tol:1e-6 "erf 3" 0.9999779095 (Gaussian.erf 3.0)

let test_cdf_values () =
  check_float ~tol:1e-7 "cdf 0" 0.5 (Gaussian.cdf 0.0);
  check_float ~tol:5e-6 "cdf 1.96" 0.9750021 (Gaussian.cdf 1.959964);
  check_float ~tol:5e-6 "cdf -1.96" 0.0249979 (Gaussian.cdf (-1.959964));
  check_float ~tol:1e-7 "mu/sigma shift" 0.5 (Gaussian.cdf ~mu:3.0 ~sigma:2.0 3.0)

let test_quantile_roundtrip () =
  List.iter
    (fun p ->
      check_float ~tol:1e-6 "cdf∘quantile" p (Gaussian.cdf (Gaussian.quantile p)))
    [ 0.001; 0.01; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 0.999 ]

let test_quantile_known () =
  check_float ~tol:2e-5 "q(0.975)" 1.959964 (Gaussian.quantile 0.975);
  check_float ~tol:1e-6 "q(0.5)" 0.0 (Gaussian.quantile 0.5);
  check_raises_invalid "q(0)" (fun () -> Gaussian.quantile 0.0)

let test_pdf () =
  check_float ~tol:1e-10 "pdf peak" (1.0 /. sqrt (2.0 *. Float.pi)) (Gaussian.pdf 0.0);
  check_float ~tol:1e-10 "log_pdf consistent" (log (Gaussian.pdf 1.3))
    (Gaussian.log_pdf 1.3)

let test_erfc () =
  (* Relative accuracy holds deep into the upper tail, where 1 − erf
     would cancel to nothing. *)
  List.iter
    (fun (x, want) ->
      let got = Gaussian.erfc x in
      check_true
        (Printf.sprintf "erfc %g relative error" x)
        (abs_float (got -. want) <= 1e-6 *. want))
    [ (0.5, 0.4795001221869535); (1.0, 0.15729920705028513);
      (3.0, 2.209049699858544e-05); (5.0, 1.5374597944280349e-12) ];
  check_float ~tol:1e-7 "erfc 0" 1.0 (Gaussian.erfc 0.0);
  check_float ~tol:1e-15 "erfc(−x) = 2 − erfc x"
    (2.0 -. Gaussian.erfc 1.0) (Gaussian.erfc (-1.0));
  check_float ~tol:1e-15 "erf = 1 − erfc"
    (1.0 -. Gaussian.erfc 0.7)
    (Gaussian.erf 0.7)

let test_quantile_mu_sigma () =
  List.iter
    (fun p ->
      let x = Gaussian.quantile_mu_sigma ~mu:(-2.0) ~sigma:3.0 p in
      check_float ~tol:1e-6 "cdf∘quantile" p
        (Gaussian.cdf ~mu:(-2.0) ~sigma:3.0 x))
    [ 0.01; 0.3; 0.5; 0.8; 0.99 ];
  (* The standard quantile is accurate to 1e-5, scaled here by sigma. *)
  check_float ~tol:3e-5 "median = mu" (-2.0)
    (Gaussian.quantile_mu_sigma ~mu:(-2.0) ~sigma:3.0 0.5)

let test_log_likelihood () =
  let xs = [| 0.2; -1.1; 0.7; 2.3; 0.4 |] in
  let direct =
    Array.fold_left
      (fun acc x -> acc +. Gaussian.log_pdf ~mu:0.5 ~sigma:1.5 x)
      0.0 xs
  in
  check_float ~tol:1e-12 "= Σ log_pdf" direct
    (Gaussian.log_likelihood ~mu:0.5 ~sigma:1.5 xs);
  (* For fixed sigma the likelihood peaks at the sample mean. *)
  let m = Stats.mean xs in
  let ll mu = Gaussian.log_likelihood ~mu ~sigma:1.5 xs in
  check_true "peak at the mean" (ll m > ll (m +. 0.05) && ll m > ll (m -. 0.05))

(* --- Stats --- *)

let test_stats_basics () =
  let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  check_float "mean" 5.0 (Stats.mean xs);
  check_float ~tol:1e-9 "variance" (32.0 /. 7.0) (Stats.variance xs);
  check_float "median" 4.5 (Stats.median xs);
  check_float "min" 2.0 (Stats.minimum xs);
  check_float "max" 9.0 (Stats.maximum xs)

let test_quantile_interp () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  check_float "q0" 1.0 (Stats.quantile xs 0.0);
  check_float "q1" 4.0 (Stats.quantile xs 1.0);
  check_float ~tol:1e-12 "q0.5" 2.5 (Stats.quantile xs 0.5)

let test_pearson () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  let ys = Array.map (fun x -> (2.0 *. x) +. 1.0) xs in
  check_float ~tol:1e-12 "perfect corr" 1.0 (Stats.pearson xs ys);
  let zs = Array.map (fun x -> -.x) xs in
  check_float ~tol:1e-12 "anti corr" (-1.0) (Stats.pearson xs zs);
  check_float "const corr" 0.0 (Stats.pearson xs (Array.make 4 1.0))

let test_histogram () =
  let xs = [| 0.0; 0.1; 0.2; 0.9; 1.0 |] in
  let h = Stats.histogram ~bins:2 xs in
  check_int "bins" 2 (Array.length h);
  check_int "counts total" 5 (Array.fold_left (fun a (_, c) -> a + c) 0 h)

let test_stddev_covariance () =
  let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  let ys = Array.map (fun x -> (3.0 *. x) -. 1.0) xs in
  check_float ~tol:1e-12 "stddev = sqrt variance" (sqrt (32.0 /. 7.0))
    (Stats.stddev xs);
  check_float ~tol:1e-12 "covariance with itself = variance"
    (Stats.variance xs) (Stats.covariance xs xs);
  check_float ~tol:1e-12 "covariance scales" (3.0 *. Stats.variance xs)
    (Stats.covariance xs ys);
  check_float ~tol:1e-12 "pearson = cov / (sd·sd)"
    (Stats.covariance xs ys /. (Stats.stddev xs *. Stats.stddev ys))
    (Stats.pearson xs ys);
  check_float "singleton" 0.0 (Stats.covariance [| 1.0 |] [| 2.0 |])

let suite =
  [ ( "prob.rng",
      [ case "determinism" test_determinism;
        case "copy" test_copy_stream;
        case "split" test_split_independent;
        case "float range" test_float_range;
        slow_case "int uniformity" test_int_uniform;
        slow_case "gaussian moments" test_gaussian_moments;
        case "permutation" test_shuffle_permutation;
        case "derive is pure in (base, index)" test_derive_pure;
        case "uniform range" test_uniform_range;
        case "bool balance" test_bool_balance;
        case "gaussian_mu_sigma moments" test_gaussian_mu_sigma;
        case "shuffle_inplace" test_shuffle_inplace ] );
    ( "prob.gaussian",
      [ case "erf values" test_erf_values;
        case "cdf values" test_cdf_values;
        case "quantile roundtrip" test_quantile_roundtrip;
        case "quantile known values" test_quantile_known;
        case "pdf" test_pdf;
        case "erfc tails" test_erfc;
        case "quantile_mu_sigma inverts cdf" test_quantile_mu_sigma;
        case "log_likelihood" test_log_likelihood ] );
    ( "prob.stats",
      [ case "basics" test_stats_basics;
        case "quantile interpolation" test_quantile_interp;
        case "pearson" test_pearson;
        case "histogram" test_histogram;
        case "stddev/covariance" test_stddev_covariance ] ) ]
