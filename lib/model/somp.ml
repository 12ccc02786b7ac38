open Cbmf_linalg

type result = { support : int array; coeffs : Mat.t }

(* Per-slot scratch for {!select_next}: the M-length score accumulator
   and per-state correlation are reused across greedy steps instead of
   allocating K+1 fresh arrays per step. *)
let select_arena = Cbmf_parallel.Arena.create ()

let id_scores = Cbmf_parallel.Arena.fresh_id ()

let id_corr = Cbmf_parallel.Arena.fresh_id ()

let select_next (d : Dataset.t) ~residual ~exclude =
  let m = d.Dataset.n_basis in
  let scores = Cbmf_parallel.Arena.grab_zeroed select_arena id_scores m in
  let corr = Cbmf_parallel.Arena.grab select_arena id_corr m in
  for k = 0 to d.Dataset.n_states - 1 do
    let b = d.Dataset.design.(k) in
    let norms = Dataset.column_norms d k in
    Mat.mat_tvec_into b residual.(k) corr;
    for j = 0 to m - 1 do
      scores.(j) <- scores.(j) +. (abs_float corr.(j) /. norms.(j))
    done
  done;
  let best = ref (-1) and best_score = ref neg_infinity in
  for j = 0 to m - 1 do
    if (not exclude.(j)) && scores.(j) > !best_score then begin
      best := j;
      best_score := scores.(j)
    end
  done;
  if !best < 0 then raise Not_found;
  !best

(* A greedy pass that ends before its requested length is recoverable
   (the prefix is returned) but skews model selection, so the truncation
   is recorded instead of being dropped on the floor. *)
let note_early_stop ~step ~reason =
  Cbmf_robust.Diag.note
    (Cbmf_robust.Fault.Early_stop { site = "somp.fit"; step; reason })

let fit_naive (d : Dataset.t) ~n_terms =
  let m = d.Dataset.n_basis in
  let n_terms = Stdlib.min n_terms (Stdlib.min d.Dataset.n_samples m) in
  assert (n_terms > 0);
  let exclude = Array.make m false in
  let support = ref [] in
  let residual = Array.map Vec.copy d.Dataset.response in
  let refit sup =
    let coeffs = Ols.fit_on_support d ~support:sup in
    for k = 0 to d.Dataset.n_states - 1 do
      residual.(k) <-
        Vec.sub d.Dataset.response.(k) (Metrics.predict_state ~coeffs d k)
    done;
    coeffs
  in
  let coeffs = ref (Mat.create d.Dataset.n_states m) in
  (try
     for step = 1 to n_terms do
       let j =
         try select_next d ~residual ~exclude
         with Not_found ->
           note_early_stop ~step ~reason:"no admissible column left";
           raise Exit
       in
       exclude.(j) <- true;
       support := j :: !support;
       try coeffs := refit (Array.of_list (List.rev !support))
       with Qr.Rank_deficient p ->
         note_early_stop ~step
           ~reason:(Printf.sprintf "rank-deficient refit (pivot %d)" p);
         raise Exit
     done
   with Exit -> ());
  { support = Array.of_list (List.rev !support); coeffs = !coeffs }

(* --- Incremental refit -----------------------------------------------
   The naive pass re-solves a from-scratch QR per greedy step: O(N·a²)
   per state per step, O(N·θ³) total.  But consecutive supports differ
   by exactly one column, so the normal equations only gain one border
   row: maintaining the support Gram's Cholesky factor per state turns
   each refit into an O(N·a + a²) append (cross products of the new
   column against the support, one forward substitution) plus an O(a²)
   triangular solve pair, and the residual update touches only the
   support columns instead of the full M-column prediction.

   Numerical safety: a border pivot d² = ‖b_j‖² − ‖w‖² that is tiny
   relative to ‖b_j‖² (or non-finite) means the new column is nearly in
   the span of the support — exactly where squared-condition normal
   equations lose to QR.  The pass then degrades, downdate-free, to the
   naive QR refit for that and all later steps (the Gram state is
   abandoned, never repaired), so ill-conditioned designs follow the
   oracle path. *)

let border_rel_tol = 1e-12

let fit (d : Dataset.t) ~n_terms =
  let m = d.Dataset.n_basis
  and nk = d.Dataset.n_states
  and n = d.Dataset.n_samples in
  let n_terms = Stdlib.min n_terms (Stdlib.min n m) in
  assert (n_terms > 0);
  let exclude = Array.make m false in
  let support = Array.make n_terms 0 in
  let n_sel = ref 0 in
  let residual = Array.map Vec.copy d.Dataset.response in
  (* Per-state lower Cholesky factor of the support Gram, row-major in
     an n_terms×n_terms scratch; [rhs] holds B_Sᵀy in support order. *)
  let chol = Array.init nk (fun _ -> Array.make (n_terms * n_terms) 0.0) in
  let rhs = Array.init nk (fun _ -> Array.make n_terms 0.0) in
  let sol = Array.init nk (fun _ -> Array.make n_terms 0.0) in
  let coeffs = ref (Mat.create nk m) in
  let degraded = ref false in
  let refit_naive sup =
    let c = Ols.fit_on_support d ~support:sup in
    for k = 0 to nk - 1 do
      residual.(k) <-
        Vec.sub d.Dataset.response.(k) (Metrics.predict_state ~coeffs:c d k)
    done;
    c
  in
  (* Border state [k]'s factor with column [j] at position [a]; raises
     [Exit] when the pivot collapses. *)
  let border k j a =
    let b = d.Dataset.design.(k) in
    let data = b.Mat.data and cols = b.Mat.cols in
    let l = chol.(k) in
    let row = a * n_terms in
    for s = 0 to a - 1 do
      let js = support.(s) in
      let acc = ref 0.0 in
      for i = 0 to n - 1 do
        let base = i * cols in
        acc := !acc +. (data.(base + js) *. data.(base + j))
      done;
      l.(row + s) <- !acc
    done;
    let djj = ref 0.0 in
    for i = 0 to n - 1 do
      let v = data.((i * cols) + j) in
      djj := !djj +. (v *. v)
    done;
    (* forward-substitute the cross products in place: row a of L *)
    for s = 0 to a - 1 do
      let acc = ref l.(row + s) in
      for t = 0 to s - 1 do
        acc := !acc -. (l.(row + t) *. l.((s * n_terms) + t))
      done;
      l.(row + s) <- !acc /. l.((s * n_terms) + s)
    done;
    let d2 = ref !djj in
    for t = 0 to a - 1 do
      let v = l.(row + t) in
      d2 := !d2 -. (v *. v)
    done;
    if (not (Float.is_finite !d2)) || !d2 <= border_rel_tol *. !djj then begin
      Cbmf_robust.Diag.note
        (Cbmf_robust.Fault.Not_pd
           { site = "somp.fit.border"; dim = a + 1; tries = 1 });
      raise Exit
    end;
    l.(row + a) <- sqrt !d2;
    rhs.(k).(a) <- (Dataset.bty d k).(j)
  in
  let solve_and_update a1 =
    let c = Mat.create nk m in
    for k = 0 to nk - 1 do
      let l = chol.(k) and g = rhs.(k) and x = sol.(k) in
      for s = 0 to a1 - 1 do
        let acc = ref g.(s) in
        for t = 0 to s - 1 do
          acc := !acc -. (l.((s * n_terms) + t) *. x.(t))
        done;
        x.(s) <- !acc /. l.((s * n_terms) + s)
      done;
      for s = a1 - 1 downto 0 do
        let acc = ref x.(s) in
        for t = s + 1 to a1 - 1 do
          acc := !acc -. (l.((t * n_terms) + s) *. x.(t))
        done;
        x.(s) <- !acc /. l.((s * n_terms) + s);
        Mat.set c k support.(s) x.(s)
      done;
      let b = d.Dataset.design.(k) in
      let data = b.Mat.data and cols = b.Mat.cols in
      let y = d.Dataset.response.(k) and r = residual.(k) in
      for i = 0 to n - 1 do
        let base = i * cols in
        let acc = ref 0.0 in
        for s = 0 to a1 - 1 do
          acc := !acc +. (data.(base + support.(s)) *. x.(s))
        done;
        r.(i) <- y.(i) -. !acc
      done
    done;
    c
  in
  (try
     for step = 1 to n_terms do
       let j =
         try select_next d ~residual ~exclude
         with Not_found ->
           note_early_stop ~step ~reason:"no admissible column left";
           raise Exit
       in
       exclude.(j) <- true;
       let a = !n_sel in
       support.(a) <- j;
       incr n_sel;
       if not !degraded then begin
         try
           for k = 0 to nk - 1 do
             border k j a
           done
         with Exit -> degraded := true
       end;
       if !degraded then begin
         try coeffs := refit_naive (Array.sub support 0 (a + 1))
         with Qr.Rank_deficient p ->
           note_early_stop ~step
             ~reason:(Printf.sprintf "rank-deficient refit (pivot %d)" p);
           raise Exit
       end
       else coeffs := solve_and_update (a + 1)
     done
   with Exit -> ());
  { support = Array.sub support 0 !n_sel; coeffs = !coeffs }

let fit_cv (d : Dataset.t) ~n_folds ~candidate_terms =
  assert (Array.length candidate_terms > 0);
  (* Folds are invariant across candidate sparsity levels: materialize
     them once instead of once per (terms, fold) pair. *)
  let folds =
    Array.init n_folds (fun fold -> Dataset.split_fold d ~n_folds ~fold)
  in
  let cv_error terms =
    let acc = ref 0.0 in
    Array.iter
      (fun (train, test) ->
        let r = fit train ~n_terms:terms in
        acc := !acc +. Metrics.coeffs_error_pooled ~coeffs:r.coeffs test)
      folds;
    !acc /. float_of_int n_folds
  in
  let errors = Array.map cv_error candidate_terms in
  let best = Vec.argmin errors in
  let chosen = candidate_terms.(best) in
  (fit d ~n_terms:chosen, chosen)
