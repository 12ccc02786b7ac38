open Cbmf_linalg
open Helpers

let test_identity () =
  let i3 = Mat.identity 3 in
  check_float "trace" 3.0 (Mat.trace i3);
  check_true "symmetric" (Mat.is_symmetric i3);
  let a = random_mat 3 3 in
  mat_close "I·a = a" a (Mat.matmul i3 a);
  mat_close "a·I = a" a (Mat.matmul a i3)

let test_transpose () =
  let a = random_mat 3 5 in
  let at = Mat.transpose a in
  check_int "rows" 5 (fst (Mat.dim at));
  mat_close "involution" a (Mat.transpose at)

let test_matmul_assoc () =
  let a = random_mat 4 3 and b = random_mat 3 5 and c = random_mat 5 2 in
  mat_close ~tol:1e-10 "(ab)c = a(bc)"
    (Mat.matmul (Mat.matmul a b) c)
    (Mat.matmul a (Mat.matmul b c))

let test_matmul_variants () =
  let a = random_mat 4 3 and b = random_mat 5 3 in
  mat_close "matmul_nt = a·bᵀ" (Mat.matmul a (Mat.transpose b)) (Mat.matmul_nt a b);
  let c = random_mat 4 5 in
  mat_close "matmul_tn = aᵀ·c" (Mat.matmul (Mat.transpose a) c) (Mat.matmul_tn a c)

let test_mat_vec () =
  let a = random_mat 4 3 in
  let x = random_vec 3 in
  let expected = Array.init 4 (fun i -> Vec.dot (Mat.row a i) x) in
  vec_close "mat_vec" expected (Mat.mat_vec a x);
  let y = random_vec 4 in
  vec_close "mat_tvec" (Mat.mat_vec (Mat.transpose a) y) (Mat.mat_tvec a y)

let test_gram () =
  let a = random_mat 6 3 in
  let g = Mat.gram a in
  check_true "gram symmetric" (Mat.is_symmetric ~tol:1e-10 g);
  mat_close "gram = aᵀa" (Mat.matmul (Mat.transpose a) a) g

let test_rows_cols () =
  let a = Mat.init 3 4 (fun i j -> float_of_int ((10 * i) + j)) in
  vec_close "row" (Vec.of_list [ 10.0; 11.0; 12.0; 13.0 ]) (Mat.row a 1);
  vec_close "col" (Vec.of_list [ 2.0; 12.0; 22.0 ]) (Mat.col a 2);
  Mat.set_row a 0 (Vec.of_list [ 1.0; 1.0; 1.0; 1.0 ]);
  check_float "set_row" 1.0 (Mat.get a 0 3);
  Mat.set_col a 1 (Vec.of_list [ 5.0; 5.0; 5.0 ]);
  check_float "set_col" 5.0 (Mat.get a 2 1)

let test_submatrix_select () =
  let a = Mat.init 4 4 (fun i j -> float_of_int ((10 * i) + j)) in
  let s = Mat.submatrix a ~row0:1 ~col0:2 ~rows:2 ~cols:2 in
  check_float "sub[0,0]" 12.0 (Mat.get s 0 0);
  check_float "sub[1,1]" 23.0 (Mat.get s 1 1);
  let c = Mat.select_cols a [| 3; 0 |] in
  check_float "select[0,0]" 3.0 (Mat.get c 0 0);
  check_float "select[2,1]" 20.0 (Mat.get c 2 1)

let test_outer_quadratic () =
  let x = Vec.of_list [ 1.0; 2.0 ] and y = Vec.of_list [ 3.0; 4.0; 5.0 ] in
  let o = Mat.outer x y in
  check_float "outer" 8.0 (Mat.get o 1 1);
  let a = random_spd 4 in
  let v = random_vec 4 in
  check_float ~tol:1e-10 "quadratic_form"
    (Vec.dot v (Mat.mat_vec a v))
    (Mat.quadratic_form a v)

let test_add_outer_inplace () =
  let a = Mat.create 2 2 in
  let x = Vec.of_list [ 1.0; 2.0 ] in
  Mat.add_outer_inplace a 2.0 x x;
  check_float "outer inplace" 8.0 (Mat.get a 1 1);
  check_float "outer inplace off-diag" 4.0 (Mat.get a 0 1)

let test_diag_trace () =
  let d = Mat.diag (Vec.of_list [ 1.0; 2.0; 3.0 ]) in
  check_float "trace" 6.0 (Mat.trace d);
  vec_close "diagonal" (Vec.of_list [ 1.0; 2.0; 3.0 ]) (Mat.diagonal d);
  Mat.add_diag_inplace d 1.0;
  check_float "add_diag" 2.0 (Mat.get d 0 0)

let test_symmetrize () =
  let a = Mat.of_arrays [| [| 1.0; 4.0 |]; [| 2.0; 1.0 |] |] in
  Mat.symmetrize_inplace a;
  check_float "sym" 3.0 (Mat.get a 0 1);
  check_true "is_symmetric" (Mat.is_symmetric a)

let test_norms () =
  let a = Mat.of_arrays [| [| 1.0; -2.0 |]; [| 3.0; 4.0 |] |] in
  check_float "norm_inf" 7.0 (Mat.norm_inf a);
  check_float "max_abs" 4.0 (Mat.max_abs a);
  check_float ~tol:1e-10 "frobenius" (sqrt 30.0) (Mat.frobenius a)

let prop_transpose_matmul =
  qcase ~count:50 "(ab)ᵀ = bᵀaᵀ"
    QCheck2.Gen.(pair (int_range 1 8) (int_range 1 8))
    (fun (r, c) ->
      let a = random_mat r c and b = random_mat c r in
      Mat.approx_equal ~tol:1e-9
        (Mat.transpose (Mat.matmul a b))
        (Mat.matmul (Mat.transpose b) (Mat.transpose a)))

let prop_trace_cyclic =
  qcase ~count:50 "Tr(ab) = Tr(ba)"
    QCheck2.Gen.(pair (int_range 1 8) (int_range 1 8))
    (fun (r, c) ->
      let a = random_mat r c and b = random_mat c r in
      abs_float (Mat.trace (Mat.matmul a b) -. Mat.trace (Mat.matmul b a))
      <= 1e-8)

(* The blocked kernels must agree with the naive triple loops on
   shapes that exercise every tile/unroll remainder (sizes around the
   4× k-unroll, the 2×2 register block, and odd dimensions). *)
let test_blocked_vs_naive () =
  List.iter
    (fun (m, p, n) ->
      let a = random_mat m p and b = random_mat p n in
      mat_close ~tol:1e-10
        (Printf.sprintf "matmul blocked = naive (%dx%dx%d)" m p n)
        (Mat.matmul_naive a b) (Mat.matmul a b);
      let bt = random_mat n p in
      mat_close ~tol:1e-10
        (Printf.sprintf "matmul_nt blocked = naive (%dx%dx%d)" m p n)
        (Mat.matmul_nt_naive a bt) (Mat.matmul_nt a bt);
      let c = random_mat m n in
      mat_close ~tol:1e-10
        (Printf.sprintf "matmul_tn blocked = naive (%dx%dx%d)" m p n)
        (Mat.matmul_naive (Mat.transpose a) c)
        (Mat.matmul_tn a c))
    [ (1, 1, 1); (2, 3, 2); (3, 5, 7); (5, 4, 1); (8, 8, 8); (9, 13, 11);
      (1, 9, 6); (17, 66, 5) ]

(* The packed-parallel GEMM paths must be bit-identical to the
   sequential blocked kernels at any domain count — the shapes are
   sized to clear the fan-out thresholds under any Tune calibration
   (> 16M flops), so the panel kernels really run — and must still
   agree with the naive oracles. *)
let test_gemm_domain_bit_identity () =
  let module Pool = Cbmf_parallel.Pool in
  let a = random_mat 257 200 and b = random_mat 200 211 in
  let nt_b = random_mat 211 200 in
  let tn_c = random_mat 257 211 in
  let s = random_mat 301 277 in
  let w = Array.init 200 (fun i -> 0.25 +. (0.125 *. float_of_int (i mod 8))) in
  let run () =
    [ Mat.matmul a b; Mat.matmul_nt a nt_b; Mat.matmul_tn a tn_c;
      Mat.syrk_tn s; Mat.syrk_nt s; Mat.matmul_nt_weighted a w nt_b ]
  in
  Pool.set_default_size 1;
  let seq = run () in
  List.iter
    (fun size ->
      Pool.set_default_size size;
      List.iteri
        (fun i (p : Mat.t) ->
          check_true
            (Printf.sprintf "kernel %d bit-identical at %d domains" i size)
            ((List.nth seq i).Mat.data = p.Mat.data))
        (run ()))
    [ 2; 4; 8 ];
  Pool.set_default_size (Pool.env_domains ());
  mat_close ~tol:1e-8 "matmul vs naive" (Mat.matmul_naive a b) (List.nth seq 0);
  mat_close ~tol:1e-8 "matmul_nt vs naive" (Mat.matmul_nt_naive a nt_b)
    (List.nth seq 1)

let test_syrk () =
  let a = random_mat 7 4 in
  mat_close ~tol:1e-10 "syrk_tn = aᵀa" (Mat.matmul_tn a a) (Mat.syrk_tn a);
  mat_close ~tol:1e-10 "syrk_nt = aaᵀ" (Mat.matmul_nt a a) (Mat.syrk_nt a);
  check_true "syrk_tn symmetric" (Mat.is_symmetric (Mat.syrk_tn a));
  check_true "syrk_nt symmetric" (Mat.is_symmetric (Mat.syrk_nt a))

let test_matmul_nt_weighted () =
  let a = random_mat 5 6 and b = random_mat 4 6 in
  let w = Array.init 6 (fun i -> 0.5 +. (0.25 *. float_of_int i)) in
  let scaled = Mat.init 5 6 (fun i j -> Mat.get a i j *. w.(j)) in
  mat_close ~tol:1e-10 "a·diag(w)·bᵀ" (Mat.matmul_nt scaled b)
    (Mat.matmul_nt_weighted a w b);
  (* Same physical matrix on both sides: symmetric fast path. *)
  let aw = Mat.matmul_nt_weighted a w a in
  let scaled_a = Mat.init 5 6 (fun i j -> Mat.get a i j *. w.(j)) in
  mat_close ~tol:1e-10 "a·diag(w)·aᵀ" (Mat.matmul_nt scaled_a a) aw;
  check_true "weighted self symmetric" (Mat.is_symmetric aw)

(* --- Allocation-free variants ---

   Each [_into] kernel must overwrite its whole destination (arena
   scratch arrives holding stale values, here NaN) and agree with its
   allocating form bit for bit.  Local generators keep the shared
   stream of the suites above untouched. *)

let test_into_kernels () =
  let rng = Cbmf_prob.Rng.create 41 in
  List.iter
    (fun (m, p, n) ->
      let a = Seeded.random_mat rng m p and b = Seeded.random_mat rng p n in
      let bt = Seeded.random_mat rng n p in
      let w = Array.init p (fun j -> 0.5 +. float_of_int j) in
      let dst = Mat.make m n Float.nan in
      Mat.matmul_into a b ~dst;
      check_bits "matmul_into" (Mat.matmul a b).Mat.data dst.Mat.data;
      let dst = Mat.make m n Float.nan in
      Mat.matmul_nt_into a bt ~dst;
      check_bits "matmul_nt_into" (Mat.matmul_nt a bt).Mat.data dst.Mat.data;
      let dst = Mat.make m n Float.nan in
      Mat.matmul_nt_weighted_into a w bt ~dst;
      check_bits "matmul_nt_weighted_into"
        (Mat.matmul_nt_weighted a w bt).Mat.data dst.Mat.data;
      let dst = Mat.make m m Float.nan in
      Mat.matmul_nt_weighted_into a w a ~dst;
      check_bits "matmul_nt_weighted_into (symmetric path)"
        (Mat.matmul_nt_weighted a w a).Mat.data dst.Mat.data;
      let x = Seeded.random_vec rng m in
      let y = Array.make p Float.nan in
      Mat.mat_tvec_into a x y;
      check_bits "mat_tvec_into" (Mat.mat_tvec a x) y)
    [ (1, 1, 1); (7, 5, 9); (33, 20, 17) ]

let test_inplace_arithmetic () =
  let rng = Cbmf_prob.Rng.create 43 in
  let a = Seeded.random_mat rng 4 6 and b = Seeded.random_mat rng 4 6 in
  let acc = Mat.copy a in
  Mat.add_inplace acc b;
  check_bits "add_inplace = add" (Mat.add a b).Mat.data acc.Mat.data;
  let acc = Mat.copy a in
  Mat.scale_inplace acc (-2.5);
  check_bits "scale_inplace = scale" (Mat.scale (-2.5) a).Mat.data acc.Mat.data;
  let acc = Mat.copy a in
  Mat.add_scaled_inplace acc 0.75 b;
  check_bits "add_scaled_inplace = a + c·b"
    (Mat.add a (Mat.scale 0.75 b)).Mat.data acc.Mat.data

let test_submatrix_into () =
  let a = Seeded.random_mat (Cbmf_prob.Rng.create 47) 6 7 in
  List.iter
    (fun (row0, col0, rows, cols) ->
      let dst = Mat.make rows cols Float.nan in
      Mat.submatrix_into a ~row0 ~col0 ~dst;
      check_bits
        (Printf.sprintf "block at (%d, %d), %dx%d" row0 col0 rows cols)
        (Mat.submatrix a ~row0 ~col0 ~rows ~cols).Mat.data dst.Mat.data)
    [ (0, 0, 6, 7); (2, 3, 3, 2); (5, 6, 1, 1); (1, 0, 4, 7) ]

let test_constructors () =
  let m = Mat.make 2 3 1.5 in
  check_true "make shape" (Mat.dim m = (2, 3));
  check_true "make fill" (Array.for_all (fun x -> x = 1.5) m.Mat.data);
  mat_close "of_rows = of_arrays"
    (Mat.of_arrays [| [| 1.0; 2.0; 3.0 |]; [| 4.0; 5.0; 6.0 |] |])
    (Mat.of_rows [ Vec.of_list [ 1.0; 2.0; 3.0 ]; Vec.of_list [ 4.0; 5.0; 6.0 ] ]);
  (* unsafe_of_flat wraps the array row-major, without a copy. *)
  let flat = [| 1.0; 2.0; 3.0; 4.0; 5.0; 6.0 |] in
  let w = Mat.unsafe_of_flat ~rows:3 ~cols:2 flat in
  check_float "row-major (2, 1)" 6.0 (Mat.get w 2 1);
  flat.(1) <- 9.0;
  check_float "shares storage" 9.0 (Mat.get w 0 1)

let test_maps () =
  let a = Mat.of_arrays [| [| 1.0; -2.0 |]; [| 3.0; -4.0 |] |] in
  mat_close "map"
    (Mat.of_arrays [| [| 1.0; 4.0 |]; [| 9.0; 16.0 |] |])
    (Mat.map (fun x -> x *. x) a);
  mat_close "mapi sees (i, j)"
    (Mat.of_arrays [| [| 1.0; -1.0 |]; [| 13.0; 7.0 |] |])
    (Mat.mapi (fun i j x -> x +. float_of_int ((10 * i) + j)) a);
  check_float "maps leave the source" (-2.0) (Mat.get a 0 1);
  Mat.update a 1 0 (fun x -> 2.0 *. x);
  check_float "update" 6.0 (Mat.get a 1 0);
  check_true "square" (Mat.is_square a);
  check_true "not square" (not (Mat.is_square (Mat.create 2 3)))

let suite =
  [ ( "linalg.mat",
      [ case "identity" test_identity;
        case "transpose" test_transpose;
        case "matmul associativity" test_matmul_assoc;
        case "matmul_nt/tn" test_matmul_variants;
        case "blocked kernels = naive" test_blocked_vs_naive;
        case "GEMM bit-identical across domain counts"
          test_gemm_domain_bit_identity;
        case "syrk" test_syrk;
        case "matmul_nt_weighted" test_matmul_nt_weighted;
        case "mat_vec/mat_tvec" test_mat_vec;
        case "gram" test_gram;
        case "rows/cols" test_rows_cols;
        case "submatrix/select_cols" test_submatrix_select;
        case "outer/quadratic" test_outer_quadratic;
        case "add_outer_inplace" test_add_outer_inplace;
        case "diag/trace" test_diag_trace;
        case "symmetrize" test_symmetrize;
        case "norms" test_norms;
        prop_transpose_matmul;
        prop_trace_cyclic;
        case "_into kernels overwrite a stale dst (bits)" test_into_kernels;
        case "in-place arithmetic = allocating (bits)" test_inplace_arithmetic;
        case "submatrix_into = submatrix" test_submatrix_into;
        case "make/of_rows/unsafe_of_flat" test_constructors;
        case "map/mapi/update" test_maps ] ) ]
