open Cbmf_linalg
open Cbmf_model

(* Upper-triangular state pairs (k1 ≤ k2), row-major.  Each pair owns
   the (k1,k2) and mirror (k2,k1) blocks of every NK×NK or K×K object
   below, so the pair loops parallelize with disjoint writes — the
   fan-out is bit-identical to the sequential loop at any domain
   count. *)
let upper_pairs k =
  let pairs = Array.make (k * (k + 1) / 2) (0, 0) in
  let idx = ref 0 in
  for k1 = 0 to k - 1 do
    for k2 = k1 to k - 1 do
      pairs.(!idx) <- (k1, k2);
      incr idx
    done
  done;
  pairs

(* Connected components of R's nonzero pattern.  G inherits R's block
   structure, Cholesky produces no fill across components, and G⁻¹ is
   therefore exactly block-diagonal over them — so any cross-component
   (k1,k2) block of G, L⁻¹·[stack] products or W is identically zero
   and can be skipped without changing a single bit of the result. *)
let r_components (r : Mat.t) =
  let k = r.Mat.rows in
  let comp = Array.make k (-1) in
  let next = ref 0 in
  for s = 0 to k - 1 do
    if comp.(s) < 0 then begin
      let c = !next in
      incr next;
      comp.(s) <- c;
      let stack = ref [ s ] in
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | u :: rest ->
            stack := rest;
            for v = 0 to k - 1 do
              if comp.(v) < 0 && Mat.get r u v <> 0.0 then begin
                comp.(v) <- c;
                stack := v :: !stack
              end
            done
      done
    end
  done;
  comp

type path = [ `Dual | `Primal ]

type t = {
  mu : Mat.t;
  sigma_blocks : (int * Mat.t) array;
  active : int array;
  nlml : float;
  resid_sq : float;
  trace_ginv : float;
  nk : int;
  path : path;
  predictive : state:int -> Vec.t -> float * float;
  state_cov : unit -> Mat.t array;
}

(* Reusable per-EM-iteration buffers.  [Em.run] threads one workspace
   through every posterior solve so the large allocations (the NK×NK
   Gram assembly, the flat response) happen once and are reused:
   per-iteration allocation churn drops to ~zero after the first
   iteration.  The buffers are invisible outside a [compute] call —
   everything the returned record (including its [predictive]
   closure) holds is freshly allocated or owned by the Cholesky
   factor. *)
type workspace = {
  g_buf : float array ref;  (* NK·NK Gram assembly *)
  y_buf : float array ref;  (* NK flat response *)
  arena : Cbmf_parallel.Arena.t;
      (* per-worker scratch for the state-pair fan-outs: each pool slot
         reuses its own pair-product / accumulator / block buffers
         across pairs, jobs and EM iterations *)
}

(* Scratch roles inside the pair fan-outs (names are global, buffers
   live per-workspace per-slot). *)
let id_pair_prod = Cbmf_parallel.Arena.fresh_id ()

let id_pair_acc = Cbmf_parallel.Arena.fresh_id ()

let id_pair_gblk = Cbmf_parallel.Arena.fresh_id ()

let id_pair_z = Cbmf_parallel.Arena.fresh_id ()

let make_workspace () =
  {
    g_buf = ref [||];
    y_buf = ref [||];
    arena = Cbmf_parallel.Arena.create ();
  }

(* Exact-size reuse: NK is fixed across EM iterations, so the buffers
   keep their arrays. *)
let grab buf len =
  let arr = if Array.length !buf = len then !buf else Array.make len 0.0 in
  Array.fill arr 0 len 0.0;
  buf := arr;
  arr

(* Assemble G = σ0²I + DADᵀ block-wise: block (k,k') is
   R[k,k']·(B_k Λ B_{k'}ᵀ) on the active columns — the λ-weighting is
   fused into the kernel, so no scaled copies of the designs are
   formed. *)
let assemble_g (d : Dataset.t) (prior : Prior.t) ~(b_act : Mat.t array)
    ~(lambda_act : Vec.t) ~pairs ~arena ~(into : float array) =
  let k = d.Dataset.n_states and n = d.Dataset.n_samples in
  let nk = k * n in
  let g = into in
  let pool = Cbmf_parallel.Pool.default () in
  Cbmf_parallel.Pool.parallel_for pool ~n:(Array.length pairs)
    (fun pair_i ->
      let k1, k2 = pairs.(pair_i) in
      let r12 = Mat.get prior.Prior.r k1 k2 in
      if r12 <> 0.0 then begin
        (* The n×n pair product lands in this slot's reusable buffer
           (N is fixed, so after the first pair per slot no allocation
           happens at all). *)
        let p =
          Mat.unsafe_of_flat ~rows:n ~cols:n
            (Cbmf_parallel.Arena.grab arena id_pair_prod (n * n))
        in
        Mat.matmul_nt_weighted_into b_act.(k1) lambda_act b_act.(k2) ~dst:p;
        for i = 0 to n - 1 do
          let gi = ((k1 * n) + i) * nk in
          let pi = i * n in
          for j = 0 to n - 1 do
            let v = r12 *. p.Mat.data.(pi + j) in
            g.(gi + (k2 * n) + j) <- v;
            if k1 <> k2 then begin
              let gj = ((k2 * n) + j) * nk in
              g.(gj + (k1 * n) + i) <- v
            end
          done
        done
      end);
  let s2 = prior.Prior.sigma0 *. prior.Prior.sigma0 in
  for i = 0 to nk - 1 do
    g.((i * nk) + i) <- g.((i * nk) + i) +. s2
  done;
  Mat.unsafe_of_flat ~rows:nk ~cols:nk g

(* Flat response, state-major, into a reusable buffer. *)
let flat_response (d : Dataset.t) ~(into : float array) =
  let k = d.Dataset.n_states and n = d.Dataset.n_samples in
  for s = 0 to k - 1 do
    Array.blit d.Dataset.response.(s) 0 into (s * n) n
  done;
  into

(* ‖y − Dμ‖² over the active columns. *)
let residual_sq (d : Dataset.t) ~(b_act : Mat.t array) ~(mu : Mat.t) ~active
    ~(y : float array) =
  let k = d.Dataset.n_states and n = d.Dataset.n_samples in
  let a = Array.length active in
  let resid_sq = ref 0.0 in
  for s = 0 to k - 1 do
    let bm = b_act.(s) in
    for i = 0 to n - 1 do
      let pred = ref 0.0 in
      let row = i * a in
      for j = 0 to a - 1 do
        pred := !pred +. (bm.Mat.data.(row + j) *. Mat.get mu active.(j) s)
      done;
      let e = y.((s * n) + i) -. !pred in
      resid_sq := !resid_sq +. (e *. e)
    done
  done;
  !resid_sq

(* --- Dual path: (NK)-sized Cholesky of G ---------------------------- *)

let compute_dual ~need_sigma ws (d : Dataset.t) (prior : Prior.t) ~active
    ~(b_act : Mat.t array) ~(lambda_act : Vec.t) =
  let k = d.Dataset.n_states
  and n = d.Dataset.n_samples
  and m = d.Dataset.n_basis in
  let a = Array.length active in
  let nk = k * n in
  let pairs = upper_pairs k in
  let g =
    assemble_g d prior ~b_act ~lambda_act ~pairs ~arena:ws.arena
      ~into:(grab ws.g_buf (nk * nk))
  in
  let chol = Chol.factorize_with_retry g in
  let y = flat_response d ~into:(grab ws.y_buf nk) in
  let z = Chol.solve_vec chol y in
  (* v: a×k with v.(j).(s) = B_s[:,active_j]ᵀ z_s. *)
  let v = Array.make_matrix a k 0.0 in
  for s = 0 to k - 1 do
    let bm = b_act.(s) in
    for i = 0 to n - 1 do
      let zi = z.((s * n) + i) in
      if zi <> 0.0 then begin
        let row = i * a in
        for j = 0 to a - 1 do
          v.(j).(s) <- v.(j).(s) +. (zi *. bm.Mat.data.(row + j))
        done
      end
    done
  done;
  (* μ_m = λ_m · R · v_m. *)
  let mu = Mat.create m k in
  Array.iteri
    (fun j col ->
      let lam = prior.Prior.lambda.(col) in
      if lam > 0.0 then begin
        let rv = Mat.mat_vec prior.Prior.r v.(j) in
        for s = 0 to k - 1 do
          Mat.set mu col s (lam *. rv.(s))
        done
      end)
    active;
  let resid_sq = residual_sq d ~b_act ~mu ~active ~y in
  let nlml = Vec.dot y z +. Chol.log_det chol in
  let sigma_blocks, trace_ginv =
    if not need_sigma then ([||], 0.0)
    else begin
      (* W_j[k1,k2] = B_{k1}[:,j]ᵀ · Ginv_blk(k1,k2) · B_{k2}[:,j]:
         materialize G⁻¹ = L⁻ᵀ·L⁻¹ once with blocked kernels
         (triangular inversion, then a SYRK that skips the rows' zero
         prefixes: (NK)³/6 each) and contract each state-pair block
         through a blocked GEMM, O((NK)³/3 + (NK)²·a) total.  [`Auto]
         takes the dual path when aK ≥ NK (the EM warm-up, where every
         λ is live) or an active λ is zero.  [Em]'s forced-dual
         fallback hop also lands here at aK < NK, where it pays
         (NK)³/3 multiply-adds instead of the (NK)²·aK/2 of a
         triangular solve against the stacked active designs: at
         lna-fit's NK = 480 and a = 10 both are ≈ 3.7·10⁷. *)
      let comp = r_components prior.Prior.r in
      let w = Array.init a (fun _ -> Mat.create k k) in
      let pool = Cbmf_parallel.Pool.default () in
      let linv_t = Chol.lower_inverse_t chol in
      (* Tr(G⁻¹) = ‖L⁻¹‖_F² comes free from the same factor. *)
      let trace_ginv = Vec.norm2_sq linv_t.Mat.data in
      let ginv = Mat.syrk_nt linv_t in
      Cbmf_parallel.Pool.parallel_for pool ~n:(Array.length pairs)
        (fun pair_i ->
          let k1, k2 = pairs.(pair_i) in
          if comp.(k1) = comp.(k2) then begin
            let gblk =
              Mat.unsafe_of_flat ~rows:n ~cols:n
                (Cbmf_parallel.Arena.grab ws.arena id_pair_gblk (n * n))
            in
            Mat.submatrix_into ginv ~row0:(k1 * n) ~col0:(k2 * n) ~dst:gblk;
            let z =
              Mat.unsafe_of_flat ~rows:n ~cols:a
                (Cbmf_parallel.Arena.grab ws.arena id_pair_z (n * a))
            in
            Mat.matmul_into gblk b_act.(k2) ~dst:z;
            let b1 = b_act.(k1).Mat.data and zd = z.Mat.data in
            let acc = Cbmf_parallel.Arena.grab_zeroed ws.arena id_pair_acc a in
            for i = 0 to n - 1 do
              let row = i * a in
              for j = 0 to a - 1 do
                acc.(j) <-
                  acc.(j)
                  +. (Array.unsafe_get b1 (row + j)
                     *. Array.unsafe_get zd (row + j))
              done
            done;
            for j = 0 to a - 1 do
              Mat.set w.(j) k1 k2 acc.(j);
              if k1 <> k2 then Mat.set w.(j) k2 k1 acc.(j)
            done
          end);
      let blocks =
        Array.mapi
          (fun j col ->
            let lam = prior.Prior.lambda.(col) in
            let rw = Mat.matmul prior.Prior.r w.(j) in
            let rwr = Mat.matmul rw prior.Prior.r in
            let s =
              Mat.sub (Mat.scale lam prior.Prior.r)
                (Mat.scale (lam *. lam) rwr)
            in
            Mat.symmetrize_inplace s;
            (col, s))
          active
      in
      (blocks, trace_ginv)
    end
  in
  (* Exact posterior-predictive functional: for the selector a of
     (basis row b, state s), aᵀA a = R[s,s]·Σ_m λ_m b_m² and
     w = D·A·a has state-k' block R[k',s]·B_{k'}(λ ∘ b), so the
     variance is aᵀA a − wᵀG⁻¹w via the cached Cholesky of G. *)
  let predictive ~state (b : Vec.t) =
    assert (state >= 0 && state < k);
    assert (Array.length b = m);
    let mean = ref 0.0 in
    Array.iter
      (fun col -> mean := !mean +. (b.(col) *. Mat.get mu col state))
      active;
    let t_act = Array.map (fun col -> prior.Prior.lambda.(col) *. b.(col)) active in
    let a_aa = ref 0.0 in
    Array.iteri (fun j col -> a_aa := !a_aa +. (t_act.(j) *. b.(col))) active;
    let a_aa = Mat.get prior.Prior.r state state *. !a_aa in
    let w = Array.make nk 0.0 in
    for s = 0 to k - 1 do
      let rks = Mat.get prior.Prior.r s state in
      if rks <> 0.0 then begin
        let bm = b_act.(s) in
        for i = 0 to n - 1 do
          let row = i * a in
          let acc = ref 0.0 in
          for j = 0 to a - 1 do
            acc := !acc +. (bm.Mat.data.(row + j) *. t_act.(j))
          done;
          w.((s * n) + i) <- rks *. !acc
        done
      end
    done;
    let var = a_aa -. Chol.quad_inv chol w in
    (!mean, Float.max var 0.0)
  in
  (* Per-state covariance of the active coefficients: with Ws the NK×a
     matrix whose column j stacks λ_j·R[k',s]·B_{k'}[:,j] over states
     k', C_s = R[s,s]·diag(λ) − WsᵀG⁻¹Ws = R[s,s]·diag(λ) − XᵀX with
     X = L⁻¹Ws, so bᵀC_s b equals [predictive]'s variance exactly. *)
  let state_cov () =
    Array.init k (fun s ->
        let ws_mat = Mat.create nk a in
        let wd = ws_mat.Mat.data in
        for k' = 0 to k - 1 do
          let rks = Mat.get prior.Prior.r k' s in
          if rks <> 0.0 then begin
            let bm = b_act.(k') in
            for i = 0 to n - 1 do
              let brow = i * a in
              let wrow = ((k' * n) + i) * a in
              for j = 0 to a - 1 do
                wd.(wrow + j) <-
                  rks *. lambda_act.(j) *. bm.Mat.data.(brow + j)
              done
            done
          end
        done;
        let x = Chol.solve_lower_mat chol ws_mat in
        let xtx = Mat.syrk_tn x in
        let c = Mat.create a a in
        let rss = Mat.get prior.Prior.r s s in
        for j = 0 to a - 1 do
          Mat.set c j j (rss *. lambda_act.(j))
        done;
        Mat.sub c xtx)
  in
  {
    mu;
    sigma_blocks;
    active;
    nlml;
    resid_sq;
    trace_ginv;
    nk;
    path = `Dual;
    predictive;
    state_cov;
  }

(* --- Primal (Woodbury) path: (aK)-sized system ----------------------
   In the post-pruning regime aK < NK it is cheaper to solve through
   P = A⁻¹ + σ0⁻²·DᵀD (the (aK)×(aK) primal normal matrix) than
   through the NK×NK marginal Gram:

     μ_w       = σ0⁻²·P⁻¹·Dᵀy                    (Woodbury)
     Σ_w       = P⁻¹                              (posterior covariance)
     yᵀG⁻¹y    = σ0⁻²·(yᵀy − (Dᵀy)ᵀ μ_w)
     log det G = 2NK·log σ0 + log det A + log det P   (determinant lemma)
     Tr(G⁻¹)   = σ0⁻²·(NK − σ0⁻²·Σ_s ⟨B_sᵀB_s, P⁻¹_ss⟩)

   With unknowns ordered state-major ((s,j) ↦ s·a+j):
   A⁻¹[(s1,j),(s2,j)] = R⁻¹[s1,s2]/λ_j (diagonal across basis), and
   DᵀD is block-diagonal across states with blocks B_sᵀB_s. *)

(* Assemble P = A⁻¹ + σ0⁻²·DᵀD and its factorization inputs.  Shared
   verbatim (same loop structure, same float-op order) between
   [compute_primal] and the public {!primal_system} hook the streaming
   rank-one updater builds on, so both produce bit-identical systems. *)
let assemble_primal (d : Dataset.t) (prior : Prior.t)
    ~(b_act : Mat.t array) ~(lambda_act : Vec.t) =
  let k = d.Dataset.n_states in
  let a = Array.length lambda_act in
  let ak = a * k in
  Array.iter (fun lam -> assert (lam > 0.0)) lambda_act;
  let sigma0 = prior.Prior.sigma0 in
  let inv_s2 = 1.0 /. (sigma0 *. sigma0) in
  let r_chol = Chol.factorize_with_retry prior.Prior.r in
  let r_inv = Chol.solve_mat r_chol (Mat.identity k) in
  Mat.symmetrize_inplace r_inv;
  let grams = Array.map Mat.gram b_act in
  let p = Mat.create ak ak in
  let pd = p.Mat.data in
  for s1 = 0 to k - 1 do
    for s2 = 0 to k - 1 do
      let rinv12 = Mat.get r_inv s1 s2 in
      if rinv12 <> 0.0 then
        for j = 0 to a - 1 do
          pd.((((s1 * a) + j) * ak) + (s2 * a) + j) <-
            rinv12 /. lambda_act.(j)
        done
    done
  done;
  for s = 0 to k - 1 do
    let gm = grams.(s) in
    for j1 = 0 to a - 1 do
      let prow = (((s * a) + j1) * ak) + (s * a) in
      let grow = j1 * a in
      for j2 = 0 to a - 1 do
        pd.(prow + j2) <- pd.(prow + j2) +. (inv_s2 *. gm.Mat.data.(grow + j2))
      done
    done
  done;
  (r_chol, grams, p)

(* c = Dᵀy, state-major — the primal right-hand side, shared like
   [assemble_primal]. *)
let primal_rhs (d : Dataset.t) ~(b_act : Mat.t array) ~(y : float array) =
  let k = d.Dataset.n_states and n = d.Dataset.n_samples in
  let a = if k > 0 then b_act.(0).Mat.cols else 0 in
  let ak = a * k in
  let c = Array.make ak 0.0 in
  for s = 0 to k - 1 do
    let bm = b_act.(s) in
    for i = 0 to n - 1 do
      let yi = y.((s * n) + i) in
      if yi <> 0.0 then begin
        let brow = i * a in
        for j = 0 to a - 1 do
          c.((s * a) + j) <- c.((s * a) + j) +. (yi *. bm.Mat.data.(brow + j))
        done
      end
    done
  done;
  c

(* log det A = K·Σ_j log λ_j + a·log det R (A is the Kronecker-structured
   prior covariance over the active block). *)
let primal_log_det_a ~(lambda_act : Vec.t) ~r_chol ~k =
  let a = Array.length lambda_act in
  let acc = ref 0.0 in
  for j = 0 to a - 1 do
    acc := !acc +. log lambda_act.(j)
  done;
  (float_of_int k *. !acc) +. (float_of_int a *. Chol.log_det r_chol)

let compute_primal ~need_sigma ws (d : Dataset.t) (prior : Prior.t) ~active
    ~(b_act : Mat.t array) ~(lambda_act : Vec.t) =
  let k = d.Dataset.n_states
  and n = d.Dataset.n_samples
  and m = d.Dataset.n_basis in
  let a = Array.length active in
  let nk = k * n in
  let ak = a * k in
  let sigma0 = prior.Prior.sigma0 in
  let inv_s2 = 1.0 /. (sigma0 *. sigma0) in
  let r_chol, grams, p = assemble_primal d prior ~b_act ~lambda_act in
  let p_chol = Chol.factorize_with_retry p in
  let y = flat_response d ~into:(grab ws.y_buf nk) in
  let c = primal_rhs d ~b_act ~y in
  let mu_w = Chol.solve_vec p_chol c in
  for i = 0 to ak - 1 do
    mu_w.(i) <- inv_s2 *. mu_w.(i)
  done;
  let mu = Mat.create m k in
  Array.iteri
    (fun j col ->
      for s = 0 to k - 1 do
        Mat.set mu col s mu_w.((s * a) + j)
      done)
    active;
  let resid_sq = residual_sq d ~b_act ~mu ~active ~y in
  let y_ginv_y = inv_s2 *. (Vec.dot y y -. Vec.dot c mu_w) in
  let log_det_a = primal_log_det_a ~lambda_act ~r_chol ~k in
  let log_det_g =
    (2.0 *. float_of_int nk *. log sigma0) +. log_det_a +. Chol.log_det p_chol
  in
  let nlml = y_ginv_y +. log_det_g in
  let sigma_blocks, trace_ginv =
    if not need_sigma then ([||], 0.0)
    else begin
      (* Only two slivers of P⁻¹ are ever read — the j-diagonal K×K
         blocks (Σ_m) and the state-diagonal a×a blocks (the trace) —
         so skip the O((aK)³) dense inverse: with rows of [linv_t]
         holding the columns of L⁻¹, each needed entry is one
         contiguous row dot P⁻¹[u,v] = Σ_{w≥max(u,v)} L⁻¹[w,u]·L⁻¹[w,v]
         on top of an O((aK)³/6) triangular inversion. *)
      let linv_t = Chol.lower_inverse_t p_chol in
      let ld = linv_t.Mat.data in
      let pinv_entry u v =
        let w0 = if u > v then u else v in
        let ru = u * ak and rv = v * ak in
        let s = ref 0.0 in
        for w = w0 to ak - 1 do
          s :=
            !s
            +. (Array.unsafe_get ld (ru + w) *. Array.unsafe_get ld (rv + w))
        done;
        !s
      in
      let blocks =
        Array.mapi
          (fun j col ->
            let s = Mat.create k k in
            for s1 = 0 to k - 1 do
              for s2 = s1 to k - 1 do
                let v = pinv_entry ((s1 * a) + j) ((s2 * a) + j) in
                Mat.set s s1 s2 v;
                if s1 <> s2 then Mat.set s s2 s1 v
              done
            done;
            (col, s))
          active
      in
      let tr_dp = ref 0.0 in
      for s = 0 to k - 1 do
        let gm = grams.(s) in
        for j1 = 0 to a - 1 do
          let grow = j1 * a in
          let u = (s * a) + j1 in
          tr_dp := !tr_dp +. (gm.Mat.data.(grow + j1) *. pinv_entry u u);
          for j2 = j1 + 1 to a - 1 do
            tr_dp :=
              !tr_dp
              +. (2.0 *. gm.Mat.data.(grow + j2)
                 *. pinv_entry u ((s * a) + j2))
          done
        done
      done;
      let trace_ginv = inv_s2 *. (float_of_int nk -. (inv_s2 *. !tr_dp)) in
      (blocks, trace_ginv)
    end
  in
  (* The coefficient posterior covariance is P⁻¹ itself, so the
     predictive variance of the functional f = Σ_j b_j·w[j,state] is a
     direct (aK)-sized quadratic form — no NK-sized work. *)
  let predictive ~state (b : Vec.t) =
    assert (state >= 0 && state < k);
    assert (Array.length b = m);
    let mean = ref 0.0 in
    Array.iter
      (fun col -> mean := !mean +. (b.(col) *. Mat.get mu col state))
      active;
    let u = Array.make ak 0.0 in
    Array.iteri (fun j col -> u.((state * a) + j) <- b.(col)) active;
    let var = Chol.quad_inv p_chol u in
    (!mean, Float.max var 0.0)
  in
  (* The coefficient covariance is P⁻¹ itself; each state-diagonal a×a
     block is read entry-wise as row dots of (L⁻¹)ᵀ. *)
  let state_cov () =
    let linv_t = Chol.lower_inverse_t p_chol in
    let ld = linv_t.Mat.data in
    let pinv_entry u v =
      let w0 = if u > v then u else v in
      let ru = u * ak and rv = v * ak in
      let s = ref 0.0 in
      for w = w0 to ak - 1 do
        s :=
          !s +. (Array.unsafe_get ld (ru + w) *. Array.unsafe_get ld (rv + w))
      done;
      !s
    in
    Array.init k (fun s ->
        let c = Mat.create a a in
        for j1 = 0 to a - 1 do
          for j2 = j1 to a - 1 do
            let v = pinv_entry ((s * a) + j1) ((s * a) + j2) in
            Mat.set c j1 j2 v;
            if j1 <> j2 then Mat.set c j2 j1 v
          done
        done;
        c)
  in
  {
    mu;
    sigma_blocks;
    active;
    nlml;
    resid_sq;
    trace_ginv;
    nk;
    path = `Primal;
    predictive;
    state_cov;
  }

let compute ?(need_sigma = true) ?(path = `Auto) ?ws (d : Dataset.t)
    (prior : Prior.t) ~active =
  let k = d.Dataset.n_states
  and n = d.Dataset.n_samples
  and m = d.Dataset.n_basis in
  assert (Prior.n_basis prior = m);
  assert (Prior.n_states prior = k);
  let a = Array.length active in
  assert (a > 0);
  Array.iter (fun i -> assert (i >= 0 && i < m)) active;
  let ws = match ws with Some w -> w | None -> make_workspace () in
  let b_act =
    Array.map (fun bmat -> Mat.select_cols bmat active) d.Dataset.design
  in
  let lambda_act = Array.map (fun j -> prior.Prior.lambda.(j)) active in
  let use_primal =
    match path with
    | `Primal -> true
    | `Dual -> false
    | `Auto ->
        a * k < n * k && Array.for_all (fun lam -> lam > 0.0) lambda_act
  in
  let t =
    if use_primal then
      compute_primal ~need_sigma ws d prior ~active ~b_act ~lambda_act
    else compute_dual ~need_sigma ws d prior ~active ~b_act ~lambda_act
  in
  (* Injection site "posterior.compute": corrupt the returned NLML so
     the EM watchdog's non-finite detection path is what recovers —
     the same path a real numerical blow-up would take. *)
  if Cbmf_robust.Inject.fire ~site:"posterior.compute" then
    { t with nlml = Float.nan }
  else t

let coefficients t = Mat.transpose t.mu

(* --- Primal-system hook for streaming rank-one updates --------------
   The active-learning updater ([Cbmf_active.Update]) keeps the aK×aK
   Cholesky of P alive across appended samples, growing it via
   [Chol.Updatable.rank1_update] instead of refitting.  It seeds itself
   from the exact same assembly [compute_primal] uses (shared helpers
   above), so
   an updated factorization and a from-scratch primal solve agree to
   factorization round-off. *)

type primal_system = {
  p_mat : Mat.t;
  rhs : Vec.t;
  yty : float;
  log_det_a : float;
  sys_active : int array;
  sys_nk : int;
}

let primal_system (d : Dataset.t) (prior : Prior.t) ~active =
  let k = d.Dataset.n_states
  and n = d.Dataset.n_samples
  and m = d.Dataset.n_basis in
  assert (Prior.n_basis prior = m);
  assert (Prior.n_states prior = k);
  let a = Array.length active in
  assert (a > 0);
  Array.iter (fun i -> assert (i >= 0 && i < m)) active;
  let b_act =
    Array.map (fun bmat -> Mat.select_cols bmat active) d.Dataset.design
  in
  let lambda_act = Array.map (fun j -> prior.Prior.lambda.(j)) active in
  let r_chol, _grams, p = assemble_primal d prior ~b_act ~lambda_act in
  let nk = k * n in
  let y = flat_response d ~into:(Array.make nk 0.0) in
  let rhs = primal_rhs d ~b_act ~y in
  let yty = Vec.dot y y in
  let log_det_a = primal_log_det_a ~lambda_act ~r_chol ~k in
  {
    p_mat = p;
    rhs;
    yty;
    log_det_a;
    sys_active = Array.copy active;
    sys_nk = nk;
  }

(* Dense reference path: builds D (NK × MK), A (MK × MK) and applies
   eqs. (19)-(21) literally.  O((MK)³) — test-sized inputs only. *)
let naive_dense (d : Dataset.t) (prior : Prior.t) =
  let k = d.Dataset.n_states
  and n = d.Dataset.n_samples
  and m = d.Dataset.n_basis in
  let nk = k * n and mk = m * k in
  assert (mk <= 512);
  (* Column order: basis-major, (m, k) ↦ m·K + k.  Row order:
     state-major, (k, n) ↦ k·N + n. *)
  let dmat = Mat.create nk mk in
  for s = 0 to k - 1 do
    for i = 0 to n - 1 do
      for j = 0 to m - 1 do
        Mat.set dmat ((s * n) + i) ((j * k) + s) (Mat.get d.Dataset.design.(s) i j)
      done
    done
  done;
  let amat = Mat.create mk mk in
  for j = 0 to m - 1 do
    for s1 = 0 to k - 1 do
      for s2 = 0 to k - 1 do
        Mat.set amat ((j * k) + s1) ((j * k) + s2)
          (prior.Prior.lambda.(j) *. Mat.get prior.Prior.r s1 s2)
      done
    done
  done;
  let y = Array.make nk 0.0 in
  for s = 0 to k - 1 do
    Array.blit d.Dataset.response.(s) 0 y (s * n) n
  done;
  let da = Mat.matmul dmat amat in
  let dad = Mat.matmul_nt da dmat in
  let g = Mat.copy dad in
  Mat.add_diag_inplace g (prior.Prior.sigma0 *. prior.Prior.sigma0);
  let chol = Chol.factorize_with_retry g in
  let z = Chol.solve_vec chol y in
  (* μ = A Dᵀ G⁻¹ y. *)
  let adt = Mat.transpose da in
  let mu_flat = Mat.mat_vec adt z in
  let mu = Mat.init m k (fun j s -> mu_flat.((j * k) + s)) in
  (* Σp = A − A Dᵀ G⁻¹ D A. *)
  let ginv_da = Chol.solve_mat chol da in
  let sigma = Mat.sub amat (Mat.matmul (Mat.transpose da) ginv_da) in
  let nlml = Vec.dot y z +. Chol.log_det chol in
  (mu, sigma, nlml)
