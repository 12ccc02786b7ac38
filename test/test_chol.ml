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
  (* a⁻¹ = (linv_t)·(linv_t)ᵀ, and ‖linv_t‖_F² = Tr(a⁻¹): the
     posterior's Tr(G⁻¹) is this sum of squares. *)
  mat_close ~tol:1e-8 "linv_t·linv_tᵀ = a⁻¹" (Chol.inverse f)
    (Mat.syrk_nt linv_t);
  let sum_sq = Vec.norm2_sq linv_t.Mat.data in
  check_float ~tol:1e-8 "frobenius² = sum of squares"
    (Mat.frobenius linv_t ** 2.0) sum_sq;
  check_float ~tol:1e-8 "sum of squares = Tr(a⁻¹)"
    (Mat.trace (Chol.inverse f)) sum_sq

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

(* --- Blocked kernels vs the reference loops ---

   Each kernel is checked bit for bit against its [_naive] reference
   at 1, 2 and 4 domains.  Sizes straddle the 32-column block and the
   2-row tiles; the largest clear the fan-out guard, so the pool really
   runs.  Local generators keep the shared stream untouched. *)

module Pool = Cbmf_parallel.Pool

let at_domains f =
  Fun.protect
    ~finally:(fun () -> Pool.set_default_size (Pool.env_domains ()))
    (fun () ->
      List.iter
        (fun d ->
          Pool.set_default_size d;
          f d)
        [ 1; 2; 4 ])

let factor_bits fact ?jitter a = (Chol.lower (fact ?jitter a)).Mat.data

(* factorize, with and without an explicit jitter, and lower_inverse_t
   all equal their references' bits on a seeded SPD matrix. *)
let kernels_match n seed =
  let a = Seeded.random_spd (Cbmf_prob.Rng.create seed) n in
  let jitter = 0.03125 *. float_of_int (1 + (seed mod 7)) in
  let f = Chol.factorize a in
  vec_bits_equal (factor_bits Chol.factorize_naive a) (Chol.lower f).Mat.data
  && vec_bits_equal
       (factor_bits Chol.factorize_naive ~jitter a)
       (factor_bits Chol.factorize ~jitter a)
  && vec_bits_equal (Chol.lower_inverse_t_naive f).Mat.data
       (Chol.lower_inverse_t f).Mat.data

let test_kernels_random_n () =
  at_domains (fun d ->
      QCheck2.Test.check_exn ~rand:(Random.State.make [| 19; d |])
        (QCheck2.Test.make ~count:20
           ~name:(Printf.sprintf "blocked = naive (bits), %d domain(s)" d)
           QCheck2.Gen.(pair (int_range 1 200) (int_bound 1_000_000))
           (fun (n, seed) -> kernels_match n seed)))

let test_kernels_fixed_n () =
  at_domains (fun d ->
      List.iter
        (fun n ->
          check_true
            (Printf.sprintf "n=%d, %d domain(s)" n d)
            (kernels_match n (3 * n)))
        [ 1; 2; 31; 32; 33; 65; 97; 700 ])

(* The pivot a failure reports: an indefinite pivot in the first block
   and in a later one, and a NaN below the diagonal that reaches pivot
   400 through the panels of the blocks in between. *)
let test_not_pd_index_matches () =
  let base = Seeded.random_spd (Cbmf_prob.Rng.create 61) 480 in
  let with_entry i j x =
    let a = Mat.copy base in
    Mat.set a i j x;
    a
  in
  let failing fact a =
    match fact a with
    | _ -> -1
    | exception Chol.Not_positive_definite j -> j
  in
  at_domains (fun d ->
      List.iter
        (fun (name, a, expected) ->
          let tag = Printf.sprintf "%s, %d domain(s)" name d in
          check_int (tag ^ ": reference")
            expected (failing (fun a -> Chol.factorize_naive a) a);
          check_int tag expected (failing (fun a -> Chol.factorize a) a))
        [ ("indefinite in block 0", with_entry 5 5 (-1.0), 5);
          ("indefinite in block 9", with_entry 300 300 (-1.0), 300);
          ("NaN entry", with_entry 400 40 Float.nan, 400) ])

(* Row and column 90 zeroed with a −1e-9 pivot: the first two jitters
   (0 and 1e-12·max|a|) leave the pivot negative, the third repairs
   it. *)
let test_retry_matches_reference () =
  let n = 120 in
  let a = Mat.copy (Seeded.random_spd (Cbmf_prob.Rng.create 67) n) in
  for k = 0 to n - 1 do
    Mat.set a 90 k 0.0;
    Mat.set a k 90 0.0
  done;
  Mat.set a 90 90 (-1e-9);
  at_domains (fun d ->
      let diag = Cbmf_robust.Diag.create () in
      let f =
        Cbmf_robust.Diag.with_current diag (fun () ->
            Chol.factorize_with_retry a)
      in
      let tag = Printf.sprintf "%d domain(s)" d in
      check_float ~tol:0.0 ("jitter: " ^ tag)
        (1e-12 *. Mat.max_abs a *. 100.0)
        (Chol.jitter f);
      check_true ("bits = reference at that jitter: " ^ tag)
        (vec_bits_equal
           (factor_bits Chol.factorize_naive ~jitter:(Chol.jitter f) a)
           (Chol.lower f).Mat.data);
      check_true ("one Not_pd note, 2 tries: " ^ tag)
        (Cbmf_robust.Diag.faults diag
        = [| Cbmf_robust.Fault.Not_pd
               { site = "chol.factorize"; dim = n; tries = 2 } |]))

(* Pinned bits of Tr(a⁻¹) = ‖l⁻¹‖_F², summed over
   [Chol.lower_inverse_t] as the posterior's dual path sums it, on
   seeded inputs: the trace must not move when the kernel under it
   does. *)
let test_trace_inverse_pinned () =
  at_domains (fun d ->
      List.iter
        (fun (n, bits) ->
          let a = Seeded.random_spd (Cbmf_prob.Rng.create (1000 + n)) n in
          check_true
            (Printf.sprintf "n=%d, %d domain(s)" n d)
            (Int64.equal bits
               (Int64.bits_of_float
                  (Vec.norm2_sq
                     (Chol.lower_inverse_t (Chol.factorize a)).Mat.data))))
        [ (1, 4609329916078788018L); (7, 4607928676309687605L);
          (33, 4606967526684275894L); (200, 4607115720191022839L) ])

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
        case "explicit jitter = factor of a + c·I (bits)" test_explicit_jitter;
        case "blocked kernels = naive (bits), random n, 1/2/4 domains"
          test_kernels_random_n;
        case "blocked kernels = naive (bits), fixed n, 1/2/4 domains"
          test_kernels_fixed_n;
        case "Not_positive_definite index = naive, 1/2/4 domains"
          test_not_pd_index_matches;
        case "jitter retry: bits and Diag note, 1/2/4 domains"
          test_retry_matches_reference;
        case "trace_inverse pinned bits, 1/2/4 domains"
          test_trace_inverse_pinned ] ) ]
