open Cbmf_linalg
open Helpers

let test_reconstruct () =
  let a = random_spd 6 in
  let f = Chol.factorize a in
  let l = Chol.lower f in
  mat_close ~tol:1e-9 "l·lᵀ = a" a (Mat.matmul_nt l l)

let test_solve () =
  let a = random_spd 8 in
  let x = random_vec 8 in
  let b = Mat.mat_vec a x in
  let f = Chol.factorize a in
  vec_close ~tol:1e-7 "solve" x (Chol.solve_vec f b)

let test_solve_mat () =
  let a = random_spd 5 in
  let f = Chol.factorize a in
  let x = random_mat 5 3 in
  let b = Mat.matmul a x in
  mat_close ~tol:1e-7 "solve_mat" x (Chol.solve_mat f b)

let test_solve_lower_mat () =
  (* Sizes straddle the 32-column panel width. *)
  List.iter
    (fun (n, nc) ->
      let a = random_spd n in
      let f = Chol.factorize a in
      let b = random_mat n nc in
      let x = Chol.solve_lower_mat f b in
      let l = Chol.lower f in
      mat_close ~tol:1e-7
        (Printf.sprintf "l·x = b (%dx%d)" n nc)
        b (Mat.matmul l x);
      (* Column-wise reference. *)
      for j = 0 to nc - 1 do
        vec_close ~tol:1e-9
          (Printf.sprintf "col %d = solve_lower" j)
          (Chol.solve_lower f (Mat.col b j))
          (Mat.col x j)
      done)
    [ (6, 3); (9, 33); (5, 64) ]

let test_solve_lower_mat_sparse_rhs () =
  (* Leading zero rows (a stacked block-diagonal RHS) must give the
     exact column-wise solution — the panel skip starts mid-matrix. *)
  let n = 8 in
  let a = random_spd n in
  let f = Chol.factorize a in
  let b = Mat.init n 4 (fun i j -> if i >= 5 then float_of_int (i + j) else 0.0) in
  let x = Chol.solve_lower_mat f b in
  for j = 0 to 3 do
    vec_close ~tol:1e-9 "sparse rhs col"
      (Chol.solve_lower f (Mat.col b j))
      (Mat.col x j)
  done;
  (* Rows above the first nonzero stay exactly zero. *)
  for i = 0 to 4 do
    for j = 0 to 3 do
      check_float "leading zero rows" 0.0 (Mat.get x i j)
    done
  done

let test_lower_inverse_t () =
  let a = random_spd 7 in
  let f = Chol.factorize a in
  let linv_t = Chol.lower_inverse_t f in
  let l = Chol.lower f in
  (* Rows of linv_t are the columns of l⁻¹: l·(linv_t)ᵀ = I. *)
  mat_close ~tol:1e-8 "l·(linv_t)ᵀ = I" (Mat.identity 7)
    (Mat.matmul_nt l linv_t);
  (* a⁻¹ = (linv_t)·(linv_t)ᵀ, and ‖linv_t‖_F² = Tr(a⁻¹). *)
  mat_close ~tol:1e-8 "linv_t·linv_tᵀ = a⁻¹" (Chol.inverse f)
    (Mat.syrk_nt linv_t);
  check_float ~tol:1e-8 "frobenius² = trace_inverse" (Chol.trace_inverse f)
    (Mat.frobenius linv_t ** 2.0)

let test_inverse () =
  let a = random_spd 5 in
  let inv = Chol.inverse (Chol.factorize a) in
  mat_close ~tol:1e-8 "a·a⁻¹ = I" (Mat.identity 5) (Mat.matmul a inv);
  check_true "inverse symmetric" (Mat.is_symmetric ~tol:1e-8 inv)

let test_logdet () =
  let d = Mat.diag (Vec.of_list [ 2.0; 3.0; 4.0 ]) in
  check_float ~tol:1e-10 "logdet diag" (log 24.0) (Chol.log_det (Chol.factorize d));
  check_float ~tol:1e-8 "det diag" 24.0 (Chol.det (Chol.factorize d))

let test_quad_inv () =
  let a = random_spd 6 in
  let f = Chol.factorize a in
  let b = random_vec 6 in
  check_float ~tol:1e-8 "quad_inv = bᵀa⁻¹b"
    (Vec.dot b (Chol.solve_vec f b))
    (Chol.quad_inv f b)

let test_trace_inverse () =
  let a = random_spd 7 in
  let f = Chol.factorize a in
  check_float ~tol:1e-8 "trace_inverse"
    (Mat.trace (Chol.inverse f))
    (Chol.trace_inverse f)

let test_not_pd () =
  let a = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 2.0; 1.0 |] |] in
  (match Chol.factorize a with
  | _ -> Alcotest.fail "expected Not_positive_definite"
  | exception Chol.Not_positive_definite _ -> ());
  check_true "is_positive_definite false" (not (Chol.is_positive_definite a));
  check_true "retry repairs"
    (let _ = Chol.factorize_with_retry (Mat.scalar 3 1e-18) in
     true)

let test_rank1_update () =
  let a = random_spd 6 in
  let v = random_vec 6 in
  let f = Chol.factorize a in
  Chol.rank1_update f (Vec.copy v);
  let updated = Mat.copy a in
  Mat.add_outer_inplace updated 1.0 v v;
  mat_close ~tol:1e-8 "cholupdate"
    updated
    (let l = Chol.lower f in
     Mat.matmul_nt l l)

let test_rank1_sequence () =
  (* Build a + Σ v_i v_iᵀ by repeated updates; compare against direct. *)
  let n = 5 in
  let a = Mat.scalar n 0.5 in
  let f = Chol.of_scaled_identity n 0.5 in
  let acc = Mat.copy a in
  for _ = 1 to 8 do
    let v = random_vec n in
    Mat.add_outer_inplace acc 1.0 v v;
    Chol.rank1_update f v
  done;
  let direct = Chol.factorize acc in
  check_float ~tol:1e-7 "logdet after updates" (Chol.log_det direct) (Chol.log_det f);
  let b = random_vec n in
  vec_close ~tol:1e-7 "solve after updates" (Chol.solve_vec direct b)
    (Chol.solve_vec f b)

let test_copy_independent () =
  let f = Chol.factorize (random_spd 4) in
  let g = Chol.copy f in
  Chol.rank1_update g (random_vec 4);
  (* The original must be unchanged: logdet of copy differs. *)
  check_true "copy independent" (Chol.log_det f < Chol.log_det g)

let test_nearest_pd () =
  let a = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 2.0; 1.0 |] |] in
  Chol.nearest_pd_inplace a;
  check_true "repaired PD" (Chol.is_positive_definite a)

let test_sample_transform () =
  let a = random_spd 4 in
  let f = Chol.factorize a in
  let z = random_vec 4 in
  vec_close ~tol:1e-10 "l·z" (Mat.mat_vec (Chol.lower f) z) (Chol.sample_transform f z)

let prop_solve_residual =
  qcase ~count:40 "‖a·solve(b) − b‖ small"
    QCheck2.Gen.(int_range 1 10)
    (fun n ->
      let a = random_spd n in
      let b = random_vec n in
      let x = Chol.solve_vec (Chol.factorize a) b in
      Vec.dist (Mat.mat_vec a x) b <= 1e-6 *. Float.max 1.0 (Vec.norm2 b))

let prop_logdet_scaling =
  qcase ~count:40 "logdet(c·a) = n·log c + logdet a"
    QCheck2.Gen.(pair (int_range 1 8) (float_range 0.5 4.0))
    (fun (n, c) ->
      let a = random_spd n in
      let ld = Chol.log_det (Chol.factorize a) in
      let ldc = Chol.log_det (Chol.factorize (Mat.scale c a)) in
      abs_float (ldc -. (ld +. (float_of_int n *. log c))) <= 1e-7)

(* --- Updatable factor vs the rank1_update oracle --- *)

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let vec_bits_equal a b =
  Array.length a = Array.length b && Array.for_all2 bits_equal a b

(* An update vector of length [n] that is zero on its first [p]
   entries ([p = n] is the all-zero vector). *)
let prefixed_vec rng n p =
  Array.init n (fun i -> if i < p then 0.0 else Cbmf_prob.Rng.gaussian rng)

(* Zero-prefix lengths for a sequence of updates: always the extremes
   (none, n−1, all-zero) plus random ones. *)
let prefixes rng n =
  [ 0; n - 1; n ] @ List.init 5 (fun _ -> Cbmf_prob.Rng.int rng (n + 1))

let updatable_case n seed =
  let rng = Cbmf_prob.Rng.create seed in
  let a = Seeded.random_spd rng n in
  let oracle = Chol.factorize a in
  let upd = Chol.Updatable.of_chol oracle in
  let acc = Mat.copy a in
  let ok = ref true in
  let fail fmt = Printf.ksprintf (fun s -> ok := false; prerr_endline s) fmt in
  List.iter
    (fun p ->
      let v = prefixed_vec rng n p in
      Mat.add_outer_inplace acc 1.0 v v;
      Chol.rank1_update oracle (Vec.copy v);
      Chol.Updatable.rank1_update upd v;
      if not (vec_bits_equal (Chol.lower oracle).Mat.data
                (Chol.Updatable.lower upd).Mat.data)
      then fail "n=%d seed=%d prefix=%d: factor bits differ" n seed p;
      let b = prefixed_vec rng n (Cbmf_prob.Rng.int rng (n + 1)) in
      if not (vec_bits_equal (Chol.solve_vec oracle b)
                (Chol.Updatable.solve_vec upd b))
      then fail "n=%d seed=%d: solve_vec bits differ" n seed;
      if not (bits_equal (Chol.quad_inv oracle b) (Chol.Updatable.quad_inv upd b))
      then fail "n=%d seed=%d: quad_inv bits differ" n seed;
      if not (bits_equal (Chol.log_det oracle) (Chol.Updatable.log_det upd))
      then fail "n=%d seed=%d: log_det bits differ" n seed)
    (prefixes rng n);
  let l = Chol.Updatable.lower upd in
  let err = Mat.max_abs (Mat.sub (Mat.matmul_nt l l) acc) in
  if err > 1e-10 *. Float.max 1.0 (Mat.max_abs acc) then
    fail "n=%d seed=%d: ‖LLᵀ − (A + Σvvᵀ)‖ = %g" n seed err;
  !ok

let prop_updatable_matches_oracle =
  qcase ~count:60 "updatable ≡ rank1_update oracle (bits)"
    QCheck2.Gen.(pair (int_range 1 64) (int_bound 1_000_000))
    (fun (n, seed) -> updatable_case n seed)

let test_updatable_extremes () =
  (* Sizes the generator may miss: 1×1 (all-zero update is the only
     skip) and the largest size. *)
  List.iter
    (fun n -> check_true (Printf.sprintf "n=%d" n) (updatable_case n (7 * n)))
    [ 1; 2; 64 ]

let test_updatable_scaled_identity () =
  let n = 9 in
  let buf = Array.make (n * n) nan in
  let upd = Chol.Updatable.scaled_identity_into buf n 0.25 in
  let oracle = Chol.of_scaled_identity n 0.25 in
  let rng = Cbmf_prob.Rng.create 5 in
  for p = 0 to n do
    let v = prefixed_vec rng n p in
    Chol.rank1_update oracle (Vec.copy v);
    Chol.Updatable.rank1_update upd v
  done;
  check_true "bits after updates from c·I"
    (vec_bits_equal (Chol.lower oracle).Mat.data (Chol.Updatable.lower upd).Mat.data);
  (* Reusing the buffer resets it completely. *)
  let fresh = Chol.Updatable.scaled_identity_into buf n 0.25 in
  check_true "reset is c·I"
    (vec_bits_equal (Mat.scalar n 0.5).Mat.data (Chol.Updatable.lower fresh).Mat.data)

(* --- Gaussian quantities built on the factor ---

   Local generators keep the shared stream of the cases above
   untouched. *)

let test_mahalanobis () =
  let rng = Cbmf_prob.Rng.create 51 in
  let f = Chol.factorize (Seeded.random_spd rng 5) in
  let x = Seeded.random_vec rng 5 and mu = Seeded.random_vec rng 5 in
  check_float ~tol:1e-10 "= quad_inv (x − mu)"
    (Chol.quad_inv f (Vec.sub x mu))
    (Chol.mahalanobis_sq f x mu);
  check_float ~tol:0.0 "zero at the mean" 0.0 (Chol.mahalanobis_sq f mu mu);
  (* Diagonal covariance: the multivariate normal log density
     −½(n·log 2π + log det Σ + d²) splits into univariate ones. *)
  let sigmas = [| 0.5; 2.0; 1.5 |] in
  let g = Chol.factorize (Mat.diag (Array.map (fun s -> s *. s) sigmas)) in
  let x = Vec.of_list [ 0.3; -1.0; 2.5 ] and mu = Vec.of_list [ 0.0; 1.0; 2.0 ] in
  let log_density =
    -0.5
    *. ((3.0 *. log (2.0 *. Float.pi)) +. Chol.log_det g
       +. Chol.mahalanobis_sq g x mu)
  in
  let separable = ref 0.0 in
  Array.iteri
    (fun i s ->
      separable :=
        !separable +. Cbmf_prob.Gaussian.log_pdf ~mu:mu.(i) ~sigma:s x.(i))
    sigmas;
  check_float ~tol:1e-12 "log density" !separable log_density

let test_correlated_draws () =
  (* mu + l·z with z iid standard normal has mean mu and covariance a. *)
  let open Cbmf_prob in
  let cov = Mat.of_arrays [| [| 2.0; 0.8 |]; [| 0.8; 1.0 |] |] in
  let mu = Vec.of_list [ 1.0; -2.0 ] in
  let f = Chol.factorize cov in
  let r = Rng.create 17 in
  let xs =
    Array.init 50_000 (fun _ ->
        Vec.add mu (Chol.sample_transform f (Rng.gaussian_vector r 2)))
  in
  let col j = Array.map (fun v -> v.(j)) xs in
  check_true "mean 0" (abs_float (Stats.mean (col 0) -. 1.0) < 0.05);
  check_true "mean 1" (abs_float (Stats.mean (col 1) +. 2.0) < 0.05);
  check_true "var 0" (abs_float (Stats.variance (col 0) -. 2.0) < 0.1);
  check_true "var 1" (abs_float (Stats.variance (col 1) -. 1.0) < 0.05);
  check_true "cov 01" (abs_float (Stats.covariance (col 0) (col 1) -. 0.8) < 0.05)

let test_solve_lower_mat_inplace () =
  let rng = Cbmf_prob.Rng.create 53 in
  List.iter
    (fun (n, nc) ->
      let f = Chol.factorize (Seeded.random_spd rng n) in
      let b = Seeded.random_mat rng n nc in
      let x = Mat.copy b in
      Chol.solve_lower_mat_inplace f x;
      check_bits
        (Printf.sprintf "in place = solve_lower_mat (%dx%d)" n nc)
        (Chol.solve_lower_mat f b).Mat.data x.Mat.data)
    [ (1, 1); (6, 3); (9, 33); (40, 5) ]

let test_explicit_jitter () =
  let a = Seeded.random_spd (Cbmf_prob.Rng.create 59) 6 in
  let c = 0.125 in
  let f = Chol.factorize ~jitter:c a in
  let shifted = Mat.copy a in
  Mat.add_diag_inplace shifted c;
  check_bits "factor of a + c·I"
    (Chol.lower (Chol.factorize shifted)).Mat.data (Chol.lower f).Mat.data;
  check_float ~tol:0.0 "jitter recorded" c (Chol.jitter f);
  check_int "dim" 6 (Chol.dim f);
  (* A zero pivot fails plain factorization; a jitter lifts it. *)
  let psd = Mat.diag (Vec.of_list [ 1.0; 0.0; 2.0 ]) in
  (match Chol.factorize psd with
  | _ -> Alcotest.fail "expected Not_positive_definite"
  | exception Chol.Not_positive_definite 1 -> ());
  check_float ~tol:1e-12 "jittered log det"
    (log 1.001 +. log 1e-3 +. log 2.001)
    (Chol.log_det (Chol.factorize ~jitter:1e-3 psd))

let suite =
  [ ( "linalg.chol",
      [ case "reconstruct" test_reconstruct;
        case "solve" test_solve;
        case "solve_mat" test_solve_mat;
        case "solve_lower_mat" test_solve_lower_mat;
        case "solve_lower_mat sparse rhs" test_solve_lower_mat_sparse_rhs;
        case "inverse" test_inverse;
        case "lower_inverse_t" test_lower_inverse_t;
        case "logdet/det" test_logdet;
        case "quad_inv" test_quad_inv;
        case "trace_inverse" test_trace_inverse;
        case "non-PD detection" test_not_pd;
        case "rank1 update" test_rank1_update;
        case "rank1 sequence" test_rank1_sequence;
        case "copy independence" test_copy_independent;
        case "nearest_pd repair" test_nearest_pd;
        case "sample_transform" test_sample_transform;
        prop_solve_residual;
        prop_logdet_scaling;
        case "updatable: extreme sizes" test_updatable_extremes;
        case "updatable: scaled identity and reset" test_updatable_scaled_identity;
        prop_updatable_matches_oracle;
        case "mahalanobis_sq and the normal log density" test_mahalanobis;
        case "correlated draws: mean and covariance" test_correlated_draws;
        case "solve_lower_mat_inplace = solve_lower_mat (bits)"
          test_solve_lower_mat_inplace;
        case "explicit jitter = factor of a + c·I (bits)" test_explicit_jitter ] ) ]
