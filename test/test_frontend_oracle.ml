(* Oracles for the front-end hot paths: the incremental S-OMP refit
   must match the naive per-step QR path (identical supports, coeffs
   to 1e-10, including rank-deficient designs where both must degrade
   and early-stop identically), and the shared-grid [Init.run] must be
   bit-identical at any domain count. *)

open Cbmf_linalg
open Cbmf_model
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
        case "Init.run bit-identical at 1/2/4 domains"
          test_init_domain_invariant ] ) ]
