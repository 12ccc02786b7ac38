open Cbmf_linalg
open Helpers

let c re im = { Complex.re; im }

let random_cmat n m =
  Cmat.init n m (fun _ _ ->
      c (Cbmf_prob.Rng.gaussian rng) (Cbmf_prob.Rng.gaussian rng))

let random_cvec n =
  Cmat.vec_of_array
    (Array.init n (fun _ ->
         c (Cbmf_prob.Rng.gaussian rng) (Cbmf_prob.Rng.gaussian rng)))

let test_vec_roundtrip () =
  let a = Array.init 5 (fun i -> c (float_of_int i) (-.float_of_int i)) in
  let v = Cmat.vec_of_array a in
  let b = Cmat.vec_to_array v in
  check_true "roundtrip" (a = b)

let test_vec_accumulate () =
  let v = Cmat.vec_create 3 in
  Cmat.vec_add_at v 1 (c 1.0 2.0);
  Cmat.vec_add_at v 1 (c 0.5 (-1.0));
  let got = Cmat.vec_get v 1 in
  check_float "re" 1.5 got.Complex.re;
  check_float "im" 1.0 got.Complex.im

let test_identity_matvec () =
  let i = Cmat.identity 4 in
  let v = random_cvec 4 in
  check_true "I·v = v" (Cmat.vec_approx_equal ~tol:1e-12 v (Cmat.mat_vec i v))

let test_add_at () =
  let m = Cmat.create 2 2 in
  Cmat.add_at m 0 1 (c 1.0 1.0);
  Cmat.add_at m 0 1 (c 2.0 (-0.5));
  let got = Cmat.get m 0 1 in
  check_float "re" 3.0 got.Complex.re;
  check_float "im" 0.5 got.Complex.im

let test_scale () =
  let m = Cmat.identity 2 in
  let s = Cmat.scale (c 0.0 1.0) m in
  let got = Cmat.get s 0 0 in
  check_float "j·1 re" 0.0 got.Complex.re;
  check_float "j·1 im" 1.0 got.Complex.im

let test_clu_solve () =
  let a = random_cmat 6 6 in
  let x = random_cvec 6 in
  let b = Cmat.mat_vec a x in
  let got = Clu.solve a b in
  check_true "clu solve" (Cmat.vec_approx_equal ~tol:1e-8 x got)

let test_clu_reuse () =
  let a = random_cmat 5 5 in
  let f = Clu.factorize a in
  for _ = 1 to 3 do
    let x = random_cvec 5 in
    let b = Cmat.mat_vec a x in
    check_true "reused factorization" (Cmat.vec_approx_equal ~tol:1e-8 x (Clu.solve_vec f b))
  done

let test_clu_pivoting () =
  (* Leading zero pivot requires a row exchange. *)
  let a =
    Cmat.init 2 2 (fun i j ->
        if i = 0 && j = 0 then Complex.zero
        else if i = 0 then c 1.0 0.0
        else if j = 0 then c 1.0 0.0
        else c 2.0 0.0)
  in
  let b = Cmat.vec_of_array [| c 1.0 0.0; c 3.0 0.0 |] in
  let x = Clu.solve a b in
  (* x1 = 1 (from row 0), x0 = 3 − 2·1 = 1. *)
  let x0 = Cmat.vec_get x 0 and x1 = Cmat.vec_get x 1 in
  check_float ~tol:1e-12 "x0" 1.0 x0.Complex.re;
  check_float ~tol:1e-12 "x1" 1.0 x1.Complex.re

let test_clu_singular () =
  let a = Cmat.create 3 3 in
  match Clu.factorize a with
  | _ -> Alcotest.fail "expected Singular"
  | exception Clu.Singular _ -> ()

let test_reactive_solve () =
  (* 1Ω resistor in series with 1 H inductor at ω = 1: z = 1 + j. *)
  let a = Cmat.init 1 1 (fun _ _ -> c 1.0 1.0) in
  let b = Cmat.vec_of_array [| c 1.0 0.0 |] in
  let x = Clu.solve a b in
  let v = Cmat.vec_get x 0 in
  check_float ~tol:1e-12 "re" 0.5 v.Complex.re;
  check_float ~tol:1e-12 "im" (-0.5) v.Complex.im

let prop_clu_residual =
  qcase ~count:30 "‖a·x − b‖ small"
    QCheck2.Gen.(int_range 1 8)
    (fun n ->
      let a = random_cmat n n in
      let x = random_cvec n in
      let b = Cmat.mat_vec a x in
      let got = Clu.solve a b in
      Cmat.vec_approx_equal ~tol:1e-6 x got)

(* Local generators keep the shared stream of the cases above
   untouched. *)

let cmat_with r n m =
  Cmat.init n m (fun _ _ ->
      c (Cbmf_prob.Rng.gaussian r) (Cbmf_prob.Rng.gaussian r))

let cvec_with r n =
  Cmat.vec_of_array
    (Array.init n (fun _ ->
         c (Cbmf_prob.Rng.gaussian r) (Cbmf_prob.Rng.gaussian r)))

let test_clu_duplicate_rows () =
  (* Rank-deficient with no zero entry: elimination must reach an
     exactly zero pivot and report it. *)
  let a =
    Cmat.init 3 3 (fun i j ->
        let i = if i = 2 then 0 else i in
        c (float_of_int (i + j + 1)) (float_of_int (i * j) -. 0.5))
  in
  match Clu.factorize a with
  | _ -> Alcotest.fail "expected Singular"
  | exception Clu.Singular _ -> ()

let test_clu_real_system () =
  (* A real system through the complex kernel: same solution as the
     real least-squares path, imaginary parts exactly zero. *)
  let r = Cbmf_prob.Rng.create 79 in
  let a = Seeded.random_mat r 6 6 and b = Seeded.random_vec r 6 in
  let ca = Cmat.init 6 6 (fun i j -> c (Mat.get a i j) 0.0) in
  let x = Clu.solve ca (Cmat.vec_of_array (Array.map (fun v -> c v 0.0) b)) in
  let expected = Qr.lstsq a b in
  check_int "dim" 6 (Clu.dim (Clu.factorize ca));
  Array.iteri
    (fun i e ->
      let z = Cmat.vec_get x i in
      check_float ~tol:1e-8 "re" e z.Complex.re;
      check_float ~tol:0.0 "im" 0.0 z.Complex.im)
    expected

let test_clu_conjugate () =
  (* conj(a)·conj(x) = conj(b) whenever a·x = b. *)
  let r = Cbmf_prob.Rng.create 83 in
  let a = cmat_with r 5 5 and b = cvec_with r 5 in
  let conj_m m = Cmat.init 5 5 (fun i j -> Complex.conj (Cmat.get m i j)) in
  let conj_v v = Cmat.vec_of_array (Array.map Complex.conj (Cmat.vec_to_array v)) in
  check_true "conjugate solution"
    (Cmat.vec_approx_equal ~tol:1e-12
       (conj_v (Clu.solve a b))
       (Clu.solve (conj_m a) (conj_v b)))

let test_cmat_arithmetic () =
  let r = Cbmf_prob.Rng.create 89 in
  let a = cmat_with r 3 4 and b = cmat_with r 3 4 in
  let s = Cmat.add a b in
  for i = 0 to 2 do
    for j = 0 to 3 do
      let want = Complex.add (Cmat.get a i j) (Cmat.get b i j) in
      let got = Cmat.get s i j in
      check_float ~tol:0.0 "add re" want.Complex.re got.Complex.re;
      check_float ~tol:0.0 "add im" want.Complex.im got.Complex.im
    done
  done;
  let a' = Cmat.copy a in
  check_true "copy equal" (Cmat.approx_equal ~tol:0.0 a a');
  Cmat.set a' 1 2 (c 30.0 (-40.0));
  check_true "copy independent" (Cmat.get a 1 2 <> c 30.0 (-40.0));
  check_true "set visible" (not (Cmat.approx_equal a a'));
  check_float ~tol:1e-12 "max_abs is the largest modulus" 50.0 (Cmat.max_abs a');
  check_true "dim" (Cmat.dim a' = (3, 4))

let test_cvec_set_norm () =
  let v = Cmat.vec_create 3 in
  check_int "vec_dim" 3 (Cmat.vec_dim v);
  Cmat.vec_set v 0 (c 3.0 4.0);
  Cmat.vec_set v 2 (c 0.0 (-12.0));
  check_float ~tol:1e-12 "vec_norm2 = sqrt Σ|z|²" 13.0 (Cmat.vec_norm2 v);
  Cmat.vec_set v 2 (c 1.0 1.0);
  check_float ~tol:0.0 "set overwrites" 1.0 (Cmat.vec_get v 2).Complex.im

let suite =
  [ ( "linalg.complex",
      [ case "vec roundtrip" test_vec_roundtrip;
        case "vec accumulate" test_vec_accumulate;
        case "identity matvec" test_identity_matvec;
        case "add_at" test_add_at;
        case "scale by j" test_scale;
        case "clu solve" test_clu_solve;
        case "clu factorization reuse" test_clu_reuse;
        case "clu pivoting" test_clu_pivoting;
        case "clu singular" test_clu_singular;
        case "reactive solve" test_reactive_solve;
        prop_clu_residual;
        case "clu duplicate rows singular" test_clu_duplicate_rows;
        case "clu real system = real least squares" test_clu_real_system;
        case "clu conjugate system" test_clu_conjugate;
        case "add/copy/set/max_abs" test_cmat_arithmetic;
        case "vec_set/vec_norm2" test_cvec_set_norm ] ) ]
