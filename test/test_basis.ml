open Cbmf_basis
open Cbmf_linalg
open Helpers

let test_term_eval () =
  let x = Vec.of_list [ 2.0; 3.0; -1.0 ] in
  check_float "constant" 1.0 (Term.eval Term.Constant x);
  check_float "linear" 3.0 (Term.eval (Term.Linear 1) x);
  check_float "square" 4.0 (Term.eval (Term.Square 0) x);
  check_float "cross" (-3.0) (Term.eval (Term.Cross (1, 2)) x)

let test_term_degree_vars () =
  check_int "deg const" 0 (Term.degree Term.Constant);
  check_int "deg linear" 1 (Term.degree (Term.Linear 4));
  check_int "deg cross" 2 (Term.degree (Term.Cross (1, 2)));
  check_true "vars cross" (Term.variables (Term.Cross (3, 5)) = [ 3; 5 ]);
  check_int "max_var const" (-1) (Term.max_variable Term.Constant)

let test_term_order () =
  check_true "const < linear" (Term.compare Term.Constant (Term.Linear 0) < 0);
  check_true "linear order" (Term.compare (Term.Linear 1) (Term.Linear 2) < 0);
  check_true "linear < square" (Term.compare (Term.Linear 9) (Term.Square 0) < 0);
  check_true "equal" (Term.equal (Term.Cross (1, 2)) (Term.Cross (1, 2)))

let test_linear_dictionary () =
  let d = Dictionary.linear 4 in
  check_int "size" 5 (Dictionary.size d);
  check_int "input_dim" 4 (Dictionary.input_dim d);
  check_true "term 0 constant" (Term.equal (Dictionary.term d 0) Term.Constant);
  let x = Vec.of_list [ 1.0; 2.0; 3.0; 4.0 ] in
  vec_close "eval" (Vec.of_list [ 1.0; 1.0; 2.0; 3.0; 4.0 ]) (Dictionary.eval d x)

let test_quadratic_dictionaries () =
  let d = Dictionary.quadratic_diagonal 3 in
  check_int "diag size" 7 (Dictionary.size d);
  let q = Dictionary.quadratic 3 in
  (* 1 + 3 linear + 3 squares + 3 crosses. *)
  check_int "full size" 10 (Dictionary.size q);
  let x = Vec.of_list [ 1.0; 2.0; 3.0 ] in
  let row = Dictionary.eval q x in
  check_float "sum of quadratic row"
    (1.0 +. 6.0 +. 14.0 +. (2.0 +. 3.0 +. 6.0))
    (Vec.sum row)

let test_duplicate_rejected () =
  check_raises_invalid "duplicate" (fun () ->
      Dictionary.of_terms [ Term.Linear 0; Term.Linear 0 ])

let test_index_of () =
  let d = Dictionary.linear 3 in
  check_true "found" (Dictionary.index_of d (Term.Linear 1) = Some 2);
  check_true "missing" (Dictionary.index_of d (Term.Square 0) = None)

let test_design_matrix () =
  let d = Dictionary.linear 2 in
  let xs = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let b = Dictionary.design_matrix d xs in
  check_int "rows" 2 (fst (Mat.dim b));
  check_int "cols" 3 (snd (Mat.dim b));
  check_float "b[1,2]" 4.0 (Mat.get b 1 2);
  check_float "constant col" 1.0 (Mat.get b 1 0)

let test_column_norms () =
  let b = Mat.of_arrays [| [| 3.0; 0.0 |]; [| 4.0; 0.0 |] |] in
  let norms = Dictionary.column_norms b in
  check_float "norm" 5.0 norms.(0);
  check_float "zero column -> 1" 1.0 norms.(1)

let prop_eval_matches_design =
  qcase ~count:30 "design rows = eval"
    QCheck2.Gen.(int_range 1 6)
    (fun dim ->
      let d = Dictionary.quadratic_diagonal dim in
      let xs = random_mat 4 dim in
      let b = Dictionary.design_matrix d xs in
      let ok = ref true in
      for i = 0 to 3 do
        if not (Vec.approx_equal ~tol:1e-12 (Mat.row b i) (Dictionary.eval d (Mat.row xs i)))
        then ok := false
      done;
      !ok)

let test_term_names () =
  check_true "to_string"
    (List.map Term.to_string
       [ Term.Constant; Term.Linear 2; Term.Square 0; Term.Cross (1, 3) ]
    = [ "1"; "x2"; "x0^2"; "x1*x3" ]);
  check_true "pp = to_string"
    (Format.asprintf "%a" Term.pp (Term.Cross (1, 3)) = "x1*x3");
  let d = Dictionary.quadratic 2 in
  let ts = Dictionary.terms d in
  check_int "one term per column" (Dictionary.size d) (Array.length ts);
  Array.iteri
    (fun i t ->
      check_true "terms.(i) = term i" (Term.equal t (Dictionary.term d i)))
    ts;
  ts.(0) <- Term.Linear 9;
  check_true "terms returns a copy"
    (not (Term.equal (Dictionary.term d 0) (Term.Linear 9)))

let suite =
  [ ( "basis",
      [ case "term eval" test_term_eval;
        case "term degree/vars" test_term_degree_vars;
        case "term ordering" test_term_order;
        case "linear dictionary" test_linear_dictionary;
        case "quadratic dictionaries" test_quadratic_dictionaries;
        case "duplicate rejection" test_duplicate_rejected;
        case "index_of" test_index_of;
        case "design matrix" test_design_matrix;
        case "column norms" test_column_norms;
        prop_eval_matches_design;
        case "term names and dictionary terms" test_term_names ] ) ]
