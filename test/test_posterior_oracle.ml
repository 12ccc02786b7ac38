(* Property-based oracle for the structured posterior: on random small
   (K, N, M) instances with every basis function active, the blocked
   O((NK)²·a) path of [Posterior.compute] — including its domain-pool
   fan-out — must agree with the literal dense reference
   [Posterior.naive_dense] (eqs. 19–21) on μ, every Σ-block and the
   NLML to 1e-8, and must be bit-identical across pool sizes. *)

open Cbmf_linalg
open Cbmf_model
open Helpers
module Pool = Cbmf_parallel.Pool

let build_case ~k ~n ~m ~seed =
  let rng = Cbmf_prob.Rng.create seed in
  let design =
    Array.init k (fun _ ->
        Mat.init n m (fun _ _ -> Cbmf_prob.Rng.gaussian rng))
  in
  let response = Array.init k (fun _ -> Cbmf_prob.Rng.gaussian_vector rng n) in
  let d = Dataset.create ~design ~response in
  let lambda = Array.init m (fun _ -> 0.05 +. Cbmf_prob.Rng.float rng) in
  let r0 = 0.9 *. Cbmf_prob.Rng.float rng in
  let sigma0 = 0.5 +. Cbmf_prob.Rng.float rng in
  let prior =
    Cbmf_core.Prior.create ~lambda
      ~r:(Cbmf_core.Prior.r_of_r0 ~n_states:k ~r0)
      ~sigma0
  in
  (d, prior)

(* |a − b| ≤ tol·(1 + max |naive|), elementwise. *)
let close ~tol reference delta = delta <= tol *. (1.0 +. reference)

let mat_scale (a : Mat.t) = Mat.max_abs a

let compute_all (d : Dataset.t) prior =
  let active = Array.init d.Dataset.n_basis Fun.id in
  Cbmf_core.Posterior.compute ~need_sigma:true d prior ~active

let gen_case =
  QCheck2.Gen.(
    quad (int_range 1 4) (int_range 2 6) (int_range 2 8) (int_range 0 100_000))

let prop_matches_dense_oracle (k, n, m, seed) =
  let d, prior = build_case ~k ~n ~m ~seed in
  let post = compute_all d prior in
  let mu_naive, sigma_naive, nlml_naive = Cbmf_core.Posterior.naive_dense d prior in
  let tol = 1e-8 in
  let mu_ok =
    close ~tol (mat_scale mu_naive)
      (Mat.max_abs (Mat.sub mu_naive post.Cbmf_core.Posterior.mu))
  in
  let nlml_ok =
    close ~tol (abs_float nlml_naive)
      (abs_float (nlml_naive -. post.Cbmf_core.Posterior.nlml))
  in
  let blocks_ok =
    Array.for_all
      (fun (col, block) ->
        let naive_block =
          Mat.init k k (fun s1 s2 ->
              Mat.get sigma_naive ((col * k) + s1) ((col * k) + s2))
        in
        close ~tol (mat_scale naive_block)
          (Mat.max_abs (Mat.sub naive_block block)))
      post.Cbmf_core.Posterior.sigma_blocks
  in
  mu_ok && nlml_ok && blocks_ok

let prop_bit_identical_across_domains (k, n, m, seed) =
  let d, prior = build_case ~k ~n ~m ~seed in
  Pool.set_default_size 1;
  let p1 = compute_all d prior in
  let others =
    List.map
      (fun size ->
        Pool.set_default_size size;
        compute_all d prior)
      [ 4; 8 ]
  in
  Pool.set_default_size (Pool.env_domains ());
  let mats_equal (a : Mat.t) (b : Mat.t) = a.Mat.data = b.Mat.data in
  List.for_all
    (fun p4 ->
      mats_equal p1.Cbmf_core.Posterior.mu p4.Cbmf_core.Posterior.mu
      && Int64.equal
           (Int64.bits_of_float p1.Cbmf_core.Posterior.nlml)
           (Int64.bits_of_float p4.Cbmf_core.Posterior.nlml)
      && Array.for_all2
           (fun (c1, b1) (c4, b4) -> c1 = c4 && mats_equal b1 b4)
           p1.Cbmf_core.Posterior.sigma_blocks
           p4.Cbmf_core.Posterior.sigma_blocks)
    others

(* Sparse active sets exercise the a < M corner of the pair loops. *)
let prop_active_subset_matches (k, n, m, seed) =
  let d, prior = build_case ~k ~n ~m ~seed in
  let active = Array.init ((m + 1) / 2) (fun i -> 2 * i) in
  Pool.set_default_size 1;
  let p1 = Cbmf_core.Posterior.compute ~need_sigma:true d prior ~active in
  Pool.set_default_size 4;
  let p4 = Cbmf_core.Posterior.compute ~need_sigma:true d prior ~active in
  Pool.set_default_size (Pool.env_domains ());
  p1.Cbmf_core.Posterior.mu.Mat.data = p4.Cbmf_core.Posterior.mu.Mat.data
  && Int64.equal
       (Int64.bits_of_float p1.Cbmf_core.Posterior.nlml)
       (Int64.bits_of_float p4.Cbmf_core.Posterior.nlml)

(* A forced [`Dual] solve at aK < NK — [Em]'s fallback hop after a
   failed primal solve — runs the explicit-G⁻¹ route like the warm-up;
   its Σ-blocks and Tr(G⁻¹) must not depend on the pool size. *)
let prop_forced_dual_thin_bit_identical (k, n, m, seed) =
  let d, prior = build_case ~k ~n ~m ~seed in
  let a = min m (n - 1) in
  let active = Array.init a (fun i -> i * m / a) in
  let solve size =
    Pool.set_default_size size;
    Cbmf_core.Posterior.compute ~need_sigma:true ~path:`Dual d prior ~active
  in
  let p1 = solve 1 in
  let p4 = solve 4 in
  Pool.set_default_size (Pool.env_domains ());
  let bits x = Int64.bits_of_float x in
  a * k < n * k
  && p1.Cbmf_core.Posterior.path = `Dual
  && p4.Cbmf_core.Posterior.path = `Dual
  && p1.Cbmf_core.Posterior.mu.Mat.data = p4.Cbmf_core.Posterior.mu.Mat.data
  && Int64.equal (bits p1.Cbmf_core.Posterior.nlml)
       (bits p4.Cbmf_core.Posterior.nlml)
  && Int64.equal (bits p1.Cbmf_core.Posterior.trace_ginv)
       (bits p4.Cbmf_core.Posterior.trace_ginv)
  && Array.for_all2
       (fun (c1, (b1 : Mat.t)) (c4, (b4 : Mat.t)) ->
         c1 = c4 && b1.Mat.data = b4.Mat.data)
       p1.Cbmf_core.Posterior.sigma_blocks p4.Cbmf_core.Posterior.sigma_blocks

(* [need_sigma:false] must agree exactly with the full path on
   everything it claims to compute (μ, NLML, residual), return no
   Σ-blocks and a zero trace — on whichever solver path [`Auto]
   picks. *)
let prop_need_sigma_false_parity (k, n, m, seed) =
  let d, prior = build_case ~k ~n ~m ~seed in
  let active = Array.init d.Dataset.n_basis Fun.id in
  let full = Cbmf_core.Posterior.compute ~need_sigma:true d prior ~active in
  let lean = Cbmf_core.Posterior.compute ~need_sigma:false d prior ~active in
  lean.Cbmf_core.Posterior.mu.Mat.data = full.Cbmf_core.Posterior.mu.Mat.data
  && Int64.equal
       (Int64.bits_of_float lean.Cbmf_core.Posterior.nlml)
       (Int64.bits_of_float full.Cbmf_core.Posterior.nlml)
  && Int64.equal
       (Int64.bits_of_float lean.Cbmf_core.Posterior.resid_sq)
       (Int64.bits_of_float full.Cbmf_core.Posterior.resid_sq)
  && lean.Cbmf_core.Posterior.sigma_blocks = [||]
  && lean.Cbmf_core.Posterior.trace_ginv = 0.0
  && lean.Cbmf_core.Posterior.path = full.Cbmf_core.Posterior.path

(* Predictive (mean, variance) vs the dense Σp of [naive_dense]: for a
   random basis row b and state st the functional a selects entries
   (j, st), so var = Σ_{j1,j2} b_{j1} b_{j2} Σp[(j1·K+st),(j2·K+st)]. *)
let prop_predictive_matches_dense (k, n, m, seed) =
  let d, prior = build_case ~k ~n ~m ~seed in
  let rng = Cbmf_prob.Rng.create (seed + 7) in
  let b = Cbmf_prob.Rng.gaussian_vector rng m in
  let st = Cbmf_prob.Rng.int rng k in
  let mu_naive, sigma_naive, _ = Cbmf_core.Posterior.naive_dense d prior in
  let mean_naive = ref 0.0 and var_naive = ref 0.0 in
  for j = 0 to m - 1 do
    mean_naive := !mean_naive +. (b.(j) *. Mat.get mu_naive j st);
    for j2 = 0 to m - 1 do
      var_naive :=
        !var_naive
        +. (b.(j) *. b.(j2) *. Mat.get sigma_naive ((j * k) + st) ((j2 * k) + st))
    done
  done;
  let tol = 1e-8 in
  List.for_all
    (fun path ->
      let post =
        Cbmf_core.Posterior.compute ~need_sigma:false ~path d prior
          ~active:(Array.init m Fun.id)
      in
      let mean, var = post.Cbmf_core.Posterior.predictive ~state:st b in
      close ~tol (abs_float !mean_naive) (abs_float (mean -. !mean_naive))
      && close ~tol (abs_float !var_naive)
           (abs_float (var -. Float.max !var_naive 0.0)))
    [ `Dual; `Primal ]

(* Woodbury (primal) vs dual on randomized (N, K, a) shapes, forcing
   both solvers on the same instance — including a = 1 and aK > NK
   (the regime where [`Auto] would pick dual). *)
let gen_woodbury_case =
  QCheck2.Gen.(
    pair gen_case (int_range 1 100))

let prop_woodbury_matches_dual ((k, n, m, seed), apick) =
  let d, prior = build_case ~k ~n ~m ~seed in
  let a = 1 + (apick mod m) in
  (* a ≤ m, so the strided picks i·m/a are strictly increasing. *)
  let active = Array.init a (fun i -> i * m / a) in
  let dual =
    Cbmf_core.Posterior.compute ~need_sigma:true ~path:`Dual d prior ~active
  in
  let primal =
    Cbmf_core.Posterior.compute ~need_sigma:true ~path:`Primal d prior ~active
  in
  let tol = 1e-8 in
  let rng = Cbmf_prob.Rng.create (seed + 13) in
  let b = Cbmf_prob.Rng.gaussian_vector rng m in
  let st = Cbmf_prob.Rng.int rng k in
  let mean_d, var_d = dual.Cbmf_core.Posterior.predictive ~state:st b in
  let mean_p, var_p = primal.Cbmf_core.Posterior.predictive ~state:st b in
  dual.Cbmf_core.Posterior.path = `Dual
  && primal.Cbmf_core.Posterior.path = `Primal
  && close ~tol
       (mat_scale dual.Cbmf_core.Posterior.mu)
       (Mat.max_abs
          (Mat.sub dual.Cbmf_core.Posterior.mu primal.Cbmf_core.Posterior.mu))
  && close ~tol
       (abs_float dual.Cbmf_core.Posterior.nlml)
       (abs_float
          (dual.Cbmf_core.Posterior.nlml -. primal.Cbmf_core.Posterior.nlml))
  && close ~tol
       (abs_float dual.Cbmf_core.Posterior.resid_sq)
       (abs_float
          (dual.Cbmf_core.Posterior.resid_sq
          -. primal.Cbmf_core.Posterior.resid_sq))
  && close ~tol
       (abs_float dual.Cbmf_core.Posterior.trace_ginv)
       (abs_float
          (dual.Cbmf_core.Posterior.trace_ginv
          -. primal.Cbmf_core.Posterior.trace_ginv))
  && Array.for_all2
       (fun (c1, b1) (c2, b2) ->
         c1 = c2 && close ~tol (mat_scale b1) (Mat.max_abs (Mat.sub b1 b2)))
       dual.Cbmf_core.Posterior.sigma_blocks
       primal.Cbmf_core.Posterior.sigma_blocks
  && close ~tol (abs_float mean_d) (abs_float (mean_d -. mean_p))
  && close ~tol (abs_float var_d) (abs_float (var_d -. var_p))

(* a = 1 pinned explicitly (the thinnest possible primal system). *)
let prop_woodbury_single_active (k, n, m, seed) =
  prop_woodbury_matches_dual ((k, n, m, seed), 0)

let suite =
  [ ( "parallel.posterior-oracle",
      [ qcase ~count:40 "compute = naive_dense (mu, Sigma, NLML) @ 1e-8"
          gen_case prop_matches_dense_oracle;
        qcase ~count:15 "bit-identical at 1 vs 4 vs 8 domains" gen_case
          prop_bit_identical_across_domains;
        qcase ~count:15 "sparse active set, 1 vs 4 domains" gen_case
          prop_active_subset_matches;
        qcase ~count:15 "forced Dual at aK < NK: bit-identical at 1 vs 4 domains"
          gen_case prop_forced_dual_thin_bit_identical;
        qcase ~count:25 "need_sigma:false = full path (mu, NLML, resid)"
          gen_case prop_need_sigma_false_parity;
        qcase ~count:25 "predictive (mean, var) = dense Sigma_p @ 1e-8"
          gen_case prop_predictive_matches_dense;
        qcase ~count:40 "Woodbury primal = dual @ 1e-8 (random shapes)"
          gen_woodbury_case prop_woodbury_matches_dual;
        qcase ~count:15 "Woodbury primal = dual @ a = 1" gen_case
          prop_woodbury_single_active ] ) ]
