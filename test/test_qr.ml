open Cbmf_linalg
open Helpers

let test_qr_reconstruct () =
  let a = random_mat 8 5 in
  let f = Qr.factorize a in
  mat_close ~tol:1e-8 "q·r = a" a (Mat.matmul (Qr.q f) (Qr.r f))

let test_qr_orthonormal () =
  let a = random_mat 9 4 in
  let q = Qr.q (Qr.factorize a) in
  mat_close ~tol:1e-9 "qᵀq = I" (Mat.identity 4) (Mat.gram q)

let test_qr_lstsq_exact () =
  let a = random_mat 6 6 in
  let x = random_vec 6 in
  vec_close ~tol:1e-7 "square solve" x (Qr.lstsq a (Mat.mat_vec a x))

let test_qr_lstsq_overdetermined () =
  (* Residual of the LS solution must be orthogonal to the columns. *)
  let a = random_mat 12 4 in
  let b = random_vec 12 in
  let x = Qr.lstsq a b in
  let r = Vec.sub (Mat.mat_vec a x) b in
  let proj = Mat.mat_tvec a r in
  check_true "normal equations" (Vec.norm_inf proj < 1e-8)

let test_qr_rank_deficient () =
  let a = Mat.init 5 3 (fun i _ -> float_of_int i) in
  (* All columns identical → rank 1. *)
  match Qr.lstsq a (random_vec 5) with
  | _ -> Alcotest.fail "expected Rank_deficient"
  | exception Qr.Rank_deficient _ -> ()

(* Local generators keep the shared stream of the cases above
   untouched. *)

let test_qr_reuse () =
  let rng = Cbmf_prob.Rng.create 61 in
  let a = Seeded.random_mat rng 10 4 in
  let f = Qr.factorize a in
  for _ = 1 to 3 do
    let b = Seeded.random_vec rng 10 in
    check_bits "solve_least_squares f = lstsq a" (Qr.lstsq a b)
      (Qr.solve_least_squares f b)
  done

let test_qr_residual_minimal () =
  let rng = Cbmf_prob.Rng.create 67 in
  let a = Seeded.random_mat rng 12 4 and b = Seeded.random_vec rng 12 in
  let x = Qr.lstsq a b in
  let r0 = Qr.residual_norm a x b in
  check_float ~tol:1e-12 "= ‖a x − b‖"
    (Vec.norm2 (Vec.sub (Mat.mat_vec a x) b))
    r0;
  for j = 0 to 3 do
    List.iter
      (fun h ->
        let xp = Vec.copy x in
        xp.(j) <- xp.(j) +. h;
        check_true "any step away raises the residual"
          (Qr.residual_norm a xp b > r0))
      [ 1e-2; -1e-2 ]
  done

let test_qr_r_is_cholesky () =
  (* aᵀa = rᵀqᵀqr = rᵀr, so r is the Cholesky factor of the Gram
     matrix up to the signs of its rows. *)
  let a = Seeded.random_mat (Cbmf_prob.Rng.create 71) 9 5 in
  let r = Qr.r (Qr.factorize a) in
  for i = 0 to 4 do
    for j = 0 to i - 1 do
      check_float ~tol:0.0 "upper triangular" 0.0 (Mat.get r i j)
    done
  done;
  mat_close ~tol:1e-9 "rᵀr = aᵀa" (Mat.gram a) (Mat.gram r);
  let l = Chol.lower (Chol.factorize (Mat.gram a)) in
  mat_close ~tol:1e-8 "|r| = |lᵀ|"
    (Mat.map abs_float (Mat.transpose l))
    (Mat.map abs_float r)

let test_qr_normal_equations () =
  let rng = Cbmf_prob.Rng.create 73 in
  let a = Seeded.random_mat rng 15 6 and b = Seeded.random_vec rng 15 in
  vec_close ~tol:1e-9 "QR = Cholesky of aᵀa x = aᵀb"
    (Chol.solve_vec (Chol.factorize (Mat.gram a)) (Mat.mat_tvec a b))
    (Qr.lstsq a b)

let suite =
  [ ( "linalg.qr",
      [ case "reconstruct" test_qr_reconstruct;
        case "orthonormal q" test_qr_orthonormal;
        case "exact solve" test_qr_lstsq_exact;
        case "least squares orthogonality" test_qr_lstsq_overdetermined;
        case "rank deficiency" test_qr_rank_deficient;
        case "factorization reuse across right-hand sides" test_qr_reuse;
        case "residual_norm is minimal at the solution" test_qr_residual_minimal;
        case "r is the Cholesky factor of aᵀa" test_qr_r_is_cholesky;
        case "lstsq = normal equations" test_qr_normal_equations ] ) ]
