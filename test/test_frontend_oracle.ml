(* Oracles for the front-end hot paths: the incremental S-OMP refit
   must match the naive per-step QR path (identical supports, coeffs
   to 1e-10, including rank-deficient designs where both must degrade
   and early-stop identically), the split-stamp [Mna.ac_sweep] must be
   bit-identical to a per-frequency [Mna.ac] loop (directly and
   through the LNA/mixer curve testbenches), and the shared-grid
   [Init.run] must be bit-identical at any domain count. *)

open Cbmf_linalg
open Cbmf_model
open Cbmf_circuit
open Helpers
module Pool = Cbmf_parallel.Pool

(* --- S-OMP: incremental vs naive ----------------------------------- *)

let build_dataset ~k ~n ~m ~seed =
  let rng = Cbmf_prob.Rng.create seed in
  let design =
    Array.init k (fun _ ->
        Mat.init n m (fun _ _ -> Cbmf_prob.Rng.gaussian rng))
  in
  let response = Array.init k (fun _ -> Cbmf_prob.Rng.gaussian_vector rng n) in
  Dataset.create ~design ~response

let coeffs_close ?(tol = 1e-10) (a : Mat.t) (b : Mat.t) =
  let maxd = ref 0.0 and maxa = ref 0.0 in
  Array.iteri
    (fun i x ->
      maxd := Float.max !maxd (abs_float (x -. b.Mat.data.(i)));
      maxa := Float.max !maxa (abs_float x))
    a.Mat.data;
  !maxd <= tol *. (1.0 +. !maxa)

let gen_somp_case =
  QCheck2.Gen.(
    quad (int_range 1 4) (int_range 4 8) (int_range 4 12) (int_range 0 100_000))

let prop_somp_matches_naive (k, n, m, seed) =
  let d = build_dataset ~k ~n ~m ~seed in
  let n_terms = Stdlib.min 3 (Stdlib.min n m) in
  let inc = Somp.fit d ~n_terms in
  let naive = Somp.fit_naive d ~n_terms in
  inc.Somp.support = naive.Somp.support
  && coeffs_close inc.Somp.coeffs naive.Somp.coeffs

(* A design whose 4th selection is an exact duplicate of the first:
   both paths must select it, fail the refit, early-stop with the
   failed column in the support and the previous step's coefficients —
   and note the stop in the ambient Diag. *)
let duplicate_column_dataset () =
  let k = 2 and n = 6 and m = 4 in
  let rng = Cbmf_prob.Rng.create 99 in
  let base =
    Array.init k (fun _ ->
        Mat.init n m (fun _ _ -> Cbmf_prob.Rng.gaussian rng))
  in
  let design =
    Array.map
      (fun b ->
        Mat.init n m (fun i j -> Mat.get b i (if j = 1 then 0 else j)))
      base
  in
  let response =
    Array.map
      (fun (b : Mat.t) ->
        Array.init n (fun i ->
            (3.0 *. Mat.get b i 0)
            +. (2.0 *. Mat.get b i 2)
            +. Mat.get b i 3))
      design
  in
  Dataset.create ~design ~response

let test_somp_rank_deficient () =
  let d = duplicate_column_dataset () in
  let diag_inc = Cbmf_robust.Diag.create () in
  let inc =
    Cbmf_robust.Diag.with_current diag_inc (fun () -> Somp.fit d ~n_terms:4)
  in
  let diag_naive = Cbmf_robust.Diag.create () in
  let naive =
    Cbmf_robust.Diag.with_current diag_naive (fun () ->
        Somp.fit_naive d ~n_terms:4)
  in
  check_true "support includes the failed duplicate"
    (Array.length inc.Somp.support = 4 && Array.exists (( = ) 1) inc.Somp.support);
  check_true "supports identical" (inc.Somp.support = naive.Somp.support);
  check_true "coeffs match naive @1e-10"
    (coeffs_close inc.Somp.coeffs naive.Somp.coeffs);
  let has_early_stop diag =
    Array.exists
      (function
        | Cbmf_robust.Fault.Early_stop { site = "somp.fit"; _ } -> true
        | _ -> false)
      (Cbmf_robust.Diag.faults diag)
  in
  check_true "incremental path noted Early_stop" (has_early_stop diag_inc);
  check_true "naive path noted Early_stop" (has_early_stop diag_naive)

let test_dataset_norm_cache () =
  let d = build_dataset ~k:3 ~n:5 ~m:7 ~seed:4 in
  let n0 = Dataset.column_norms d 1 in
  let n1 = Dataset.column_norms d 1 in
  check_true "cache returns the same array" (n0 == n1);
  check_true "cached norms match a fresh computation"
    (n0 = Cbmf_basis.Dictionary.column_norms d.Dataset.design.(1));
  Dataset.warm_caches d;
  check_true "warm_caches keeps the pointer" (Dataset.column_norms d 1 == n0)

(* --- MNA sweep: split-stamp vs per-frequency rebuild --------------- *)

let rc_circuit () =
  let ckt = Mna.create () in
  let a = Mna.fresh_node ckt "a" in
  let b = Mna.fresh_node ckt "b" in
  Mna.resistor ckt a b 1.0e3;
  Mna.resistor ckt b Mna.ground 2.0e3;
  Mna.capacitor ckt b Mna.ground 1.0e-12;
  Mna.inductor ckt a Mna.ground 1.0e-9;
  Mna.vccs ckt ~out_pos:b ~out_neg:Mna.ground ~ctrl_pos:a ~ctrl_neg:Mna.ground
    ~gm:1.0e-3;
  (ckt, a, b)

let complex_bits_eq (x : Complex.t array) (y : Complex.t array) =
  Array.for_all2
    (fun (a : Complex.t) (b : Complex.t) ->
      Int64.equal (Int64.bits_of_float a.Complex.re) (Int64.bits_of_float b.Complex.re)
      && Int64.equal (Int64.bits_of_float a.Complex.im) (Int64.bits_of_float b.Complex.im))
    x y

let test_ac_sweep_bit_identical () =
  let ckt, a, b = rc_circuit () in
  let freqs = Array.init 12 (fun i -> 1.0e8 *. float_of_int (i + 1)) in
  let swept = Mna.ac_sweep ckt ~freqs in
  check_int "one analysis per frequency" (Array.length freqs)
    (Array.length swept);
  Array.iteri
    (fun i freq ->
      let direct = Mna.ac ckt ~freq in
      let vd = Mna.solve_injection direct ~pos:a ~neg:Mna.ground in
      let vs = Mna.solve_injection swept.(i) ~pos:a ~neg:Mna.ground in
      check_true
        (Printf.sprintf "sweep = ac at %.3e Hz" freq)
        (complex_bits_eq vd vs);
      let td = Mna.differential vd b Mna.ground in
      let ts = Mna.differential vs b Mna.ground in
      check_true
        (Printf.sprintf "sensed voltage bits at %.3e Hz" freq)
        (Int64.equal (Int64.bits_of_float td.Complex.re)
           (Int64.bits_of_float ts.Complex.re)
        && Int64.equal (Int64.bits_of_float td.Complex.im)
             (Int64.bits_of_float ts.Complex.im)))
    freqs

let test_ac_sweep_validation () =
  let ckt, _, _ = rc_circuit () in
  check_raises_invalid "empty sweep" (fun () ->
      Mna.ac_sweep ckt ~freqs:[||]);
  check_raises_invalid "zero frequency" (fun () ->
      Mna.ac_sweep ckt ~freqs:[| 0.0; 1.0e9 |]);
  check_raises_invalid "negative frequency" (fun () ->
      Mna.ac_sweep ckt ~freqs:[| -1.0e9 |]);
  check_raises_invalid "non-finite frequency" (fun () ->
      Mna.ac_sweep ckt ~freqs:[| 1.0e9; Float.nan |]);
  check_raises_invalid "infinite frequency" (fun () ->
      Mna.ac_sweep ckt ~freqs:[| 1.0e9; Float.infinity |]);
  check_raises_invalid "non-increasing sweep" (fun () ->
      Mna.ac_sweep ckt ~freqs:[| 1.0e9; 1.0e9; 2.0e9 |])

let float_bits_eq (x : float array) (y : float array) =
  Array.for_all2
    (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
    x y

let test_lna_curve_matches_naive () =
  let tb = Lna.create () in
  let rng = Cbmf_prob.Rng.create 31 in
  let freqs = Array.init 7 (fun i -> 0.8e9 +. (0.4e9 *. float_of_int i)) in
  for case = 0 to 2 do
    let state = case * 11 mod Testbench.n_states tb in
    let x = Cbmf_prob.Rng.gaussian_vector rng (Testbench.dim tb) in
    check_true
      (Printf.sprintf "lna curve bits, state %d" state)
      (float_bits_eq
         (Lna.gain_curve tb ~state x ~freqs)
         (Lna.gain_curve_naive tb ~state x ~freqs))
  done;
  let x = Cbmf_prob.Rng.gaussian_vector rng (Testbench.dim tb) in
  check_true "testbench curve field = gain_curve"
    (float_bits_eq
       (Testbench.evaluate_curve tb ~state:3 ~freqs x)
       (Lna.gain_curve tb ~state:3 x ~freqs))

let test_mixer_curve_matches_naive () =
  let tb = Mixer.create () in
  let rng = Cbmf_prob.Rng.create 37 in
  let freqs = Array.init 6 (fun i -> 1.0e9 +. (0.5e9 *. float_of_int i)) in
  for case = 0 to 2 do
    let state = case * 13 mod Testbench.n_states tb in
    let x = Cbmf_prob.Rng.gaussian_vector rng (Testbench.dim tb) in
    check_true
      (Printf.sprintf "mixer curve bits, state %d" state)
      (float_bits_eq
         (Mixer.rf_gain_curve tb ~state x ~freqs)
         (Mixer.rf_gain_curve_naive tb ~state x ~freqs))
  done

let test_montecarlo_curves () =
  let tb = Lna.create () in
  let freqs = Array.init 5 (fun i -> 1.0e9 +. (0.5e9 *. float_of_int i)) in
  let mc = Montecarlo.generate tb (Cbmf_prob.Rng.create 42) ~n_per_state:2 in
  Pool.set_default_size 1;
  let c1 = Montecarlo.curves mc ~freqs in
  Pool.set_default_size 2;
  let c2 = Montecarlo.curves mc ~freqs in
  Pool.set_default_size (Pool.env_domains ());
  check_true "curves bit-identical at 1 vs 2 domains"
    (Int64.equal (hash_mats c1) (hash_mats c2));
  check_true "curve row = direct gain_curve"
    (float_bits_eq
       (Mat.row c1.(5) 1)
       (Lna.gain_curve tb ~state:5 (Mat.row mc.Montecarlo.states.(5).Montecarlo.xs 1) ~freqs));
  let no_curve = { tb with Testbench.curve = None } in
  let mc_nc = { mc with Montecarlo.testbench = no_curve } in
  check_raises_invalid "curves on a sweep-less testbench" (fun () ->
      Montecarlo.curves mc_nc ~freqs);
  check_raises_invalid "evaluate_curve on a sweep-less testbench" (fun () ->
      Testbench.evaluate_curve no_curve ~state:0 ~freqs
        (Array.make (Testbench.dim tb) 0.0))

(* --- Init: shared-grid precompute, domain invariance --------------- *)

let planted_dataset () =
  let rng = Cbmf_prob.Rng.create 17 in
  let k = 3 and n = 9 and m = 20 in
  let support = [| 2; 7; 13 |] in
  let design =
    Array.init k (fun _ ->
        Mat.init n m (fun _ j ->
            if j = 0 then 1.0 else Cbmf_prob.Rng.gaussian rng))
  in
  let response =
    Array.init k (fun s ->
        Array.init n (fun i ->
            let acc = ref (0.05 *. Cbmf_prob.Rng.gaussian rng) in
            Array.iteri
              (fun si col ->
                let c = 1.0 /. float_of_int (si + 1) in
                let c = c *. (1.0 +. (0.2 *. sin (0.3 *. float_of_int s))) in
                acc := !acc +. (c *. Mat.get design.(s) i col))
              support;
            !acc))
  in
  Dataset.create ~design ~response

let init_config =
  {
    Cbmf_core.Init.r0_grid = [| 0.6; 0.9 |];
    sigma0_grid = [| 0.1; 0.3 |];
    theta_max = 4;
    n_folds = 3;
    lambda_off = 1e-7;
  }

let test_init_domain_invariant () =
  let d = planted_dataset () in
  let run () = Cbmf_core.Init.run ~config:init_config d in
  let results =
    List.map
      (fun domains ->
        Pool.set_default_size domains;
        run ())
      [ 1; 2; 4 ]
  in
  Pool.set_default_size (Pool.env_domains ());
  match results with
  | r1 :: rest ->
      check_true "selected a non-empty support"
        (Array.length r1.Cbmf_core.Init.support > 0);
      List.iteri
        (fun i r ->
          let tag = Printf.sprintf "domains case %d" (i + 1) in
          check_true (tag ^ ": support") (r.Cbmf_core.Init.support = r1.Cbmf_core.Init.support);
          check_true (tag ^ ": theta") (r.Cbmf_core.Init.theta = r1.Cbmf_core.Init.theta);
          check_true (tag ^ ": r0 bits")
            (Int64.equal
               (Int64.bits_of_float r.Cbmf_core.Init.r0)
               (Int64.bits_of_float r1.Cbmf_core.Init.r0));
          check_true (tag ^ ": sigma0 bits")
            (Int64.equal
               (Int64.bits_of_float r.Cbmf_core.Init.sigma0)
               (Int64.bits_of_float r1.Cbmf_core.Init.sigma0));
          check_true (tag ^ ": cv_error bits")
            (Int64.equal
               (Int64.bits_of_float r.Cbmf_core.Init.cv_error)
               (Int64.bits_of_float r1.Cbmf_core.Init.cv_error));
          check_true (tag ^ ": prior lambda bits")
            (Int64.equal
               (hash_floats r.Cbmf_core.Init.prior.Cbmf_core.Prior.lambda)
               (hash_floats r1.Cbmf_core.Init.prior.Cbmf_core.Prior.lambda));
          check_true (tag ^ ": prior R bits")
            (Int64.equal
               (hash_floats r.Cbmf_core.Init.prior.Cbmf_core.Prior.r.Mat.data)
               (hash_floats r1.Cbmf_core.Init.prior.Cbmf_core.Prior.r.Mat.data)))
        rest
  | [] -> assert false

let suite =
  [ ( "frontend-oracle",
      [ qcase ~count:40 "Somp.fit = fit_naive (support, coeffs @1e-10)"
          gen_somp_case prop_somp_matches_naive;
        case "rank-deficient design: identical degradation + Early_stop"
          test_somp_rank_deficient;
        case "Dataset.column_norms is cached and exact"
          test_dataset_norm_cache;
        case "Mna.ac_sweep = per-frequency Mna.ac bitwise"
          test_ac_sweep_bit_identical;
        case "Mna.ac_sweep input validation" test_ac_sweep_validation;
        slow_case "LNA gain_curve = naive per-frequency path bitwise"
          test_lna_curve_matches_naive;
        slow_case "Mixer rf_gain_curve = naive per-frequency path bitwise"
          test_mixer_curve_matches_naive;
        slow_case "Montecarlo.curves: domain-invariant, validated"
          test_montecarlo_curves;
        case "Init.run bit-identical at 1/2/4 domains"
          test_init_domain_invariant ] ) ]
