open Cbmf_linalg
open Cbmf_model

type config = {
  r0_grid : float array;
  sigma0_grid : float array;
  theta_max : int;
  n_folds : int;
  lambda_off : float;
}

let default_config =
  {
    r0_grid = [| 0.6; 0.9; 0.995 |];
    sigma0_grid = [| 0.1; 0.3 |];
    theta_max = 40;
    n_folds = 4;
    lambda_off = 1e-7;
  }

type result = {
  support : int array;
  r0 : float;
  sigma0 : float;
  theta : int;
  cv_error : float;
  prior : Prior.t;
}

(* Per-slot scratch shared by every grid cell a worker processes: the
   NK×NK factor of G, the NK-sized update vector and the flat response
   are grabbed once per pass and reused across cells (NK is
   fold-invariant, so after the first cell per slot these cost
   nothing). *)
let cell_arena = Cbmf_parallel.Arena.create ()

let id_chol_g = Cbmf_parallel.Arena.fresh_id ()

let id_rank1_u = Cbmf_parallel.Arena.fresh_id ()

let id_flat_y = Cbmf_parallel.Arena.fresh_id ()

(* One incremental greedy pass.  G starts at σ0²·I and grows by the
   rank-K contribution E_s·R·E_sᵀ = Σ_j (E_s·L_R·e_j)(…)ᵀ of each
   selected basis s (λ = 1), maintained as rank-1 Cholesky updates.
   Column j of L_R is zero above state j, so the j-th update vector is
   zero on the first j·n entries and the updatable factor skips them:
   the K updates of a step cost Σ_j (n(K−j))²/2 ≈ n²K³/6 instead of
   K·(nK)²/2.  [r_chol] is the pair (R(r0), lower Cholesky factor of
   R) — invariant across σ0 and folds, so {!run} factorizes it once per
   r0 instead of once per grid cell.  [g_buf] (length NK², overwritten)
   holds the factor; the grid cells pass per-slot scratch. *)
let greedy_pass_pre ~g_buf ~r_chol:(r, l_r) ~(train : Dataset.t) ~test
    ~sigma0 ~theta_max =
  let k = train.Dataset.n_states
  and n = train.Dataset.n_samples
  and m = train.Dataset.n_basis in
  let nk = k * n in
  let theta_max = Stdlib.min theta_max (Stdlib.min (nk - 1) m) in
  assert (theta_max >= 1);
  let chol_g =
    Chol.Updatable.scaled_identity_into g_buf nk (sigma0 *. sigma0)
  in
  let y = Cbmf_parallel.Arena.grab cell_arena id_flat_y nk in
  for s = 0 to k - 1 do
    Array.blit train.Dataset.response.(s) 0 y (s * n) n
  done;
  let residual = Array.map Vec.copy train.Dataset.response in
  let exclude = Array.make m false in
  let support = ref [] in
  let errors = ref [] in
  let steps = ref 0 in
  (* Hoisted out of the per-step per-j loop below: the old code built a
     fresh NK vector for every (step, j) — nk·k·θ allocations per
     pass.  A zero-fill of the shared buffer produces the same values
     bit-for-bit. *)
  let u = Cbmf_parallel.Arena.grab cell_arena id_rank1_u nk in
  (try
     for _ = 1 to theta_max do
       let s = Somp.select_next train ~residual ~exclude in
       exclude.(s) <- true;
       support := s :: !support;
       incr steps;
       (* Rank-K update of the G factor for basis s. *)
       for j = 0 to k - 1 do
         Array.fill u 0 nk 0.0;
         for st = 0 to k - 1 do
           let lrj = Mat.get l_r st j in
           if lrj <> 0.0 then begin
             let b = train.Dataset.design.(st) in
             for i = 0 to n - 1 do
               u.((st * n) + i) <- lrj *. Mat.get b i s
             done
           end
         done;
         Chol.Updatable.rank1_update chol_g u
       done;
       (* Bayesian coefficients on the current support (λ = 1). *)
       let z = Chol.Updatable.solve_vec chol_g y in
       let sup = Array.of_list (List.rev !support) in
       let a = Array.length sup in
       let mu = Mat.create a k in
       Array.iteri
         (fun j col ->
           let v = Array.make k 0.0 in
           for st = 0 to k - 1 do
             let b = train.Dataset.design.(st) in
             let bd = b.Mat.data and bc = b.Mat.cols in
             let acc = ref 0.0 in
             for i = 0 to n - 1 do
               acc :=
                 !acc
                 +. (Array.unsafe_get bd ((i * bc) + col)
                    *. Array.unsafe_get z ((st * n) + i))
             done;
             v.(st) <- !acc
           done;
           Mat.set_row mu j (Mat.mat_vec r v))
         sup;
       (* Residuals (eq. 34), rebuilt from the original response in
          place: each entry is fully overwritten and the old per-step
          copies are gone (the initial [Vec.copy] above made
          [residual] private to this pass). *)
       for st = 0 to k - 1 do
         let b = train.Dataset.design.(st) in
         let bd = b.Mat.data and bc = b.Mat.cols in
         let md = mu.Mat.data in
         let resp = train.Dataset.response.(st) in
         let res = residual.(st) in
         for i = 0 to n - 1 do
           let row = i * bc in
           let pred = ref 0.0 in
           for j = 0 to a - 1 do
             pred :=
               !pred
               +. (Array.unsafe_get bd (row + Array.unsafe_get sup j)
                  *. Array.unsafe_get md ((j * k) + st))
           done;
           res.(i) <- Array.unsafe_get resp i -. !pred
         done
       done;
       (* Score this θ on the held-out fold. *)
       match test with
       | None -> ()
       | Some (t : Dataset.t) ->
           let pairs =
             Array.init k (fun st ->
                 let b = t.Dataset.design.(st) in
                 let predicted =
                   Array.init b.Mat.rows (fun i ->
                       let acc = ref 0.0 in
                       for j = 0 to a - 1 do
                         acc := !acc +. (Mat.get b i sup.(j) *. Mat.get mu j st)
                       done;
                       !acc)
                 in
                 (predicted, t.Dataset.response.(st)))
           in
           errors := Metrics.relative_rms_pooled pairs :: !errors
     done
   with Not_found -> ());
  (Array.of_list (List.rev !support), Array.of_list (List.rev !errors))

let greedy_pass ~(train : Dataset.t) ~test ~r0 ~sigma0 ~theta_max =
  let r = Prior.r_of_r0 ~n_states:train.Dataset.n_states ~r0 in
  let l_r = Chol.lower (Chol.factorize_with_retry r) in
  (* One pass, typically on the full dataset after the grid: a
     transient factor, not one kept alive in the slot's scratch. *)
  let nk = train.Dataset.n_states * train.Dataset.n_samples in
  greedy_pass_pre ~g_buf:(Array.make (nk * nk) 0.0) ~r_chol:(r, l_r) ~train
    ~test ~sigma0 ~theta_max

let run ?(config = default_config) (d : Dataset.t) =
  assert (Array.length config.r0_grid > 0);
  assert (Array.length config.sigma0_grid > 0);
  let pool = Cbmf_parallel.Pool.default () in
  (* --- Shared grid precomputation ------------------------------------
     Algorithm 1 prices an r0 × σ0 × fold grid of independent greedy
     passes; everything invariant across part of that nest is hoisted
     out of it:
     – the CV fold datasets (invariant across the whole grid) are
       materialized once instead of once per (r0, σ0) cell, and their
       column-norm / Bᵀy caches are warmed up front so the pool
       workers below only ever read them;
     – R(r0) and its Cholesky factor (invariant across σ0 and folds)
       are factorized once per r0 value. *)
  Dataset.warm_caches d;
  let folds =
    Array.init config.n_folds (fun fold ->
        let train, test = Dataset.split_fold d ~n_folds:config.n_folds ~fold in
        Dataset.warm_caches train;
        Dataset.warm_caches test;
        (train, test))
  in
  let r_chols =
    Array.map
      (fun r0 ->
        let r = Prior.r_of_r0 ~n_states:d.Dataset.n_states ~r0 in
        (r, Chol.lower (Chol.factorize_with_retry r)))
      config.r0_grid
  in
  (* Every (r0, σ0, fold) cell is independent: flatten the whole grid
     into one task list so the pool balances n_r0·n_σ0·n_folds units at
     once instead of n_folds at a time.  The reduction below walks the
     results in the original (r0 outer, σ0 inner, fold, θ ascending)
     order, so the selected cell — including tie-breaking — is
     identical to the sequential triple loop. *)
  let n_s0 = Array.length config.sigma0_grid in
  let n_cells =
    Array.length config.r0_grid * n_s0 * config.n_folds
  in
  let cell_errs =
    Cbmf_parallel.Pool.map ~chunk:1 pool ~n:n_cells (fun idx ->
        let r0_i = idx / (n_s0 * config.n_folds) in
        let rest = idx mod (n_s0 * config.n_folds) in
        let s0_i = rest / config.n_folds
        and fold = rest mod config.n_folds in
        let train, test = folds.(fold) in
        let nk = train.Dataset.n_states * train.Dataset.n_samples in
        let g_buf = Cbmf_parallel.Arena.grab cell_arena id_chol_g (nk * nk) in
        let _, errs =
          greedy_pass_pre ~g_buf ~r_chol:r_chols.(r0_i) ~train
            ~test:(Some test) ~sigma0:config.sigma0_grid.(s0_i)
            ~theta_max:config.theta_max
        in
        errs)
  in
  let best = ref None in
  Array.iteri
    (fun r0_i r0 ->
      Array.iteri
        (fun s0_i sigma0 ->
          let acc = ref [||] in
          let n_err = ref max_int in
          for fold = 0 to config.n_folds - 1 do
            let errs =
              cell_errs.((((r0_i * n_s0) + s0_i) * config.n_folds) + fold)
            in
            n_err := Stdlib.min !n_err (Array.length errs);
            if fold = 0 then acc := Array.copy errs
            else
              for i = 0
                   to Stdlib.min (Array.length !acc) (Array.length errs) - 1
              do
                !acc.(i) <- !acc.(i) +. errs.(i)
              done
          done;
          let n_err = Stdlib.min !n_err (Array.length !acc) in
          for theta_i = 0 to n_err - 1 do
            let e = !acc.(theta_i) /. float_of_int config.n_folds in
            match !best with
            | Some (_, _, _, e_best) when e >= e_best -> ()
            | _ -> best := Some (r0, sigma0, theta_i + 1, e)
          done)
        config.sigma0_grid)
    config.r0_grid;
  match !best with
  | None -> invalid_arg "Init.run: empty grid or degenerate data"
  | Some (r0, sigma0, theta, cv_error) ->
      (* Step 16-17: refit on all samples with the winning triple. *)
      let support, _ =
        greedy_pass ~train:d ~test:None ~r0 ~sigma0 ~theta_max:theta
      in
      let lambda = Array.make d.Dataset.n_basis config.lambda_off in
      Array.iter (fun s -> lambda.(s) <- 1.0) support;
      let prior =
        Prior.create ~lambda ~r:(Prior.r_of_r0 ~n_states:d.Dataset.n_states ~r0)
          ~sigma0
      in
      { support; r0; sigma0; theta; cv_error; prior }
