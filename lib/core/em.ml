open Cbmf_linalg
open Cbmf_model
open Cbmf_robust

type config = {
  max_iter : int;
  tol : float;
  prune_tol : float;
  warm_iters : int;
  update_r : bool;
  update_sigma0 : bool;
  r_ridge : float;
  min_sigma0 : float;
  min_active : int;
  max_recoveries : int;
  divergence_tol : float;
}

let default_config =
  {
    max_iter = 30;
    tol = 1e-4;
    prune_tol = 1e-4;
    warm_iters = 1;
    update_r = true;
    update_sigma0 = false;
    r_ridge = 1e-5;
    min_sigma0 = 1e-4;
    min_active = 1;
    max_recoveries = 8;
    divergence_tol = 0.5;
  }

type trace = {
  iterations : int;
  nlml_history : float array;
  active_history : int array;
  converged : bool;
  recoveries : int;
  warm_start : bool;
  diag : Diag.t;
}

(* Keep at least [min_active] columns: if pruning is too aggressive,
   fall back to the largest-λ columns.  During the warm-up iterations
   every nonzero λ stays active so the first full posterior can
   resurrect basis functions the greedy initializer missed; afterwards
   the standard relative floor applies. *)
let prune cfg ~iter (lambda : Vec.t) =
  let m = Array.length lambda in
  let lmax = Array.fold_left Float.max 0.0 lambda in
  let tol = if iter <= cfg.warm_iters then 0.0 else cfg.prune_tol in
  let keep = ref [] in
  for j = m - 1 downto 0 do
    if lambda.(j) > tol *. lmax then keep := j :: !keep
  done;
  let kept = Array.of_list !keep in
  if Array.length kept >= cfg.min_active then kept
  else begin
    (* Top-λ fallback (hit e.g. when every λ is zero, so nothing clears
       the relative floor).  Array.sort is not stable, so ties must be
       broken explicitly — by column index — or the kept set would
       depend on the sort's internal order. *)
    let order = Array.init m (fun i -> i) in
    Array.sort
      (fun i j ->
        let c = compare lambda.(j) lambda.(i) in
        if c <> 0 then c else compare i j)
      order;
    let top = Array.sub order 0 (Stdlib.min cfg.min_active m) in
    Array.sort compare top;
    top
  end

let finite_mat (m : Mat.t) = Array.for_all Float.is_finite m.Mat.data

let finite_prior (p : Prior.t) =
  Array.for_all Float.is_finite p.Prior.lambda
  && Float.is_finite p.Prior.sigma0
  && finite_mat p.Prior.r

let finite_post (t : Posterior.t) =
  Float.is_finite t.Posterior.nlml && finite_mat t.Posterior.mu

(* [damp] < 1 blends the update toward the previous hyper-parameters —
   the step damping applied after a rollback.  At the default 1.0 the
   update is used verbatim (no blend arithmetic touches the values, so
   a fault-free run is bit-identical to the undamped code path). *)
let m_step ?(damp = 1.0) cfg (d : Dataset.t) (prior : Prior.t)
    (post : Posterior.t) =
  let k = d.Dataset.n_states in
  let m = d.Dataset.n_basis in
  let nk = float_of_int post.Posterior.nk in
  let r_chol = Chol.factorize_with_retry prior.Prior.r in
  let r_inv = Chol.inverse r_chol in
  let lambda' = Array.make m 0.0 in
  let r_acc = Mat.create k k in
  let n_acc = ref 0 in
  Array.iter
    (fun (col, sigma_m) ->
      let mu_m = Mat.row post.Posterior.mu col in
      (* e = Σ_m + μ_m μ_mᵀ *)
      let e = Mat.copy sigma_m in
      Mat.add_outer_inplace e 1.0 mu_m mu_m;
      (* λ_m = Tr(R⁻¹ e)/K; both factors are symmetric, so the trace
         of the product is the elementwise dot — O(K²), not O(K³). *)
      let tr = Vec.dot r_inv.Mat.data e.Mat.data in
      let lam = Float.max (tr /. float_of_int k) 0.0 in
      lambda'.(col) <- lam;
      if lam > 1e-300 then begin
        Mat.add_scaled_inplace r_acc (1.0 /. lam) e;
        incr n_acc
      end)
    post.Posterior.sigma_blocks;
  let r' =
    if cfg.update_r && !n_acc > 0 then begin
      let r_new = Mat.scale (1.0 /. float_of_int !n_acc) r_acc in
      (* Fix the λ·R scale ambiguity and keep R well-conditioned. *)
      let mean_diag =
        Float.max (Mat.trace r_new /. float_of_int k) 1e-300
      in
      Mat.scale_inplace r_new (1.0 /. mean_diag);
      (* The sample estimate averages only |A| outer-product terms; a
         K×K correlation needs ≳2K of them.  Shrink toward the previous
         R in proportion to the evidence so a thin active set cannot
         destabilize the prior. *)
      let w = Float.min 1.0 (float_of_int !n_acc /. (2.0 *. float_of_int k)) in
      Mat.scale_inplace r_new w;
      Mat.add_scaled_inplace r_new (1.0 -. w) prior.Prior.r;
      Mat.symmetrize_inplace r_new;
      Mat.add_diag_inplace r_new cfg.r_ridge;
      (try Chol.nearest_pd_inplace r_new
       with Invalid_argument _ | Fault.Error _ ->
         (* The PD projection gave up: degrade R to its diagonal — the
            states decorrelate, which loses fusion strength but keeps
            the prior usable — and record the degradation. *)
         Diag.note (Fault.Not_pd { site = "em.m_step.r"; dim = k; tries = 0 });
         for i = 0 to k - 1 do
           for j = 0 to k - 1 do
             if i <> j then Mat.set r_new i j 0.0
             else Mat.set r_new i i (Float.max (abs_float (Mat.get r_new i i)) cfg.r_ridge)
           done
         done);
      r_new
    end
    else Mat.copy prior.Prior.r
  in
  let sigma0' =
    if cfg.update_sigma0 then begin
      let s2 = prior.Prior.sigma0 *. prior.Prior.sigma0 in
      let tr_dsd = s2 *. (nk -. (s2 *. post.Posterior.trace_ginv)) in
      let tr_dsd = Float.max tr_dsd 0.0 in
      Float.max (sqrt ((post.Posterior.resid_sq +. tr_dsd) /. nk)) cfg.min_sigma0
    end
    else prior.Prior.sigma0
  in
  if damp < 1.0 then begin
    (* Damped step: convex blend toward the previous hyper-parameters
       (a convex combination of PD matrices stays PD). *)
    let keep = 1.0 -. damp in
    for j = 0 to m - 1 do
      lambda'.(j) <- (damp *. lambda'.(j)) +. (keep *. prior.Prior.lambda.(j))
    done;
    let r_blend = Mat.scale damp r' in
    Mat.add_scaled_inplace r_blend keep prior.Prior.r;
    Mat.symmetrize_inplace r_blend;
    let sigma0'' = (damp *. sigma0') +. (keep *. prior.Prior.sigma0) in
    Prior.create ~lambda:lambda' ~r:r_blend ~sigma0:sigma0''
  end
  else Prior.create ~lambda:lambda' ~r:r' ~sigma0:sigma0'

let run ?(config = default_config) ?posterior ?init_hypers (d : Dataset.t)
    prior0 =
  let diag = Diag.create () in
  (* Warm start: a previous run's hyper-parameters replace [prior0] as
     the EM iterate — the streaming loop's resync entry, where the
     initializer's grid search would be both wasted work and a
     discontinuity in the model trajectory. *)
  let warm_start = init_hypers <> None in
  let prior0 =
    match init_hypers with
    | Some (h : Prior.t) ->
        if
          Prior.n_basis h <> Prior.n_basis prior0
          || Prior.n_states h <> Prior.n_states prior0
        then invalid_arg "Em.run: init_hypers shape mismatch"
        else h
    | None -> prior0
  in
  Diag.with_current diag @@ fun () ->
  (* Reject NaN/Inf rows up front with a structured, typed report —
     one bad entry would otherwise surface as an inscrutable Cholesky
     failure deep inside the first E-step. *)
  Dataset.validate_exn d;
  let user_posterior = posterior in
  (* One workspace for the whole EM run: every iteration's posterior
     solve reuses the same large buffers (see {!Posterior.workspace}). *)
  let ws = lazy (Posterior.make_workspace ()) in
  let base_solve ?path ~need_sigma prior ~active =
    match user_posterior with
    | Some f -> f ?need_sigma:(Some need_sigma) d prior ~active
    | None ->
        Posterior.compute ~need_sigma ?path ~ws:(Lazy.force ws) d prior ~active
  in
  let recoveries = ref 0 in
  (* E-step with a fallback chain: the auto-selected path (Primal when
     cheaper), then the dual path forced (better conditioned: it never
     divides by a tiny λ), then a jittered retry (ridged R, inflated
     σ0) on the dual path.  Every hop is recorded. *)
  let solve_guarded ~iter prior ~active =
    let attempt ?path prior =
      match base_solve ?path ~need_sigma:true prior ~active with
      | t ->
          if finite_post t then Ok t
          else
            Error
              (Fault.Non_finite
                 { site = "posterior.compute"; what = "nlml/mu"; index = iter })
      | exception Fault.Error f -> Error f
      | exception Chol.Not_positive_definite j ->
          Error (Fault.Not_pd { site = "posterior.compute"; dim = j; tries = 0 })
      | exception e ->
          Error
            (Fault.Worker_error
               { site = "posterior.compute"; message = Printexc.to_string e })
    in
    match attempt prior with
    | Ok t -> Ok t
    | Error f1 -> (
        Diag.record diag f1;
        incr recoveries;
        match attempt ~path:`Dual prior with
        | Ok t -> Ok t
        | Error f2 -> (
            Diag.record diag f2;
            incr recoveries;
            let jittered =
              try
                let k = Prior.n_states prior in
                let r_j = Mat.copy prior.Prior.r in
                let mean_diag =
                  Float.max (Mat.trace r_j /. float_of_int k) 1e-12
                in
                Mat.add_diag_inplace r_j (0.1 *. mean_diag);
                Some
                  (Prior.create ~lambda:prior.Prior.lambda ~r:r_j
                     ~sigma0:(10.0 *. prior.Prior.sigma0))
              with _ -> None
            in
            match jittered with
            | None ->
                Diag.record diag f2;
                Error f2
            | Some pj -> (
                match attempt ~path:`Dual pj with
                | Ok t -> Ok t
                | Error f3 ->
                    Diag.record diag f3;
                    Error f3)))
  in
  (* M-step guard: a typed fault or a non-finite hyper-parameter keeps
     the current prior (the update is skipped, which lets the loop's
     convergence test terminate it) instead of poisoning the run. *)
  let m_step_guarded ~iter ~damp prior post =
    match m_step ~damp config d prior post with
    | p when finite_prior p -> p
    | _ ->
        Diag.record diag
          (Fault.Non_finite
             { site = "em.m_step"; what = "lambda/R/sigma0"; index = iter });
        incr recoveries;
        prior
    | exception Fault.Error f ->
        Diag.record diag f;
        incr recoveries;
        prior
    | exception Chol.Not_positive_definite j ->
        Diag.record diag (Fault.Not_pd { site = "em.m_step"; dim = j; tries = 0 });
        incr recoveries;
        prior
  in
  let nlml = ref [] and active_hist = ref [] in
  let rec loop prior last_good last_nlml iter damp =
    let active = prune config ~iter prior.Prior.lambda in
    match solve_guarded ~iter prior ~active with
    | Error f -> (
        (* The whole fallback chain failed.  Degrade gracefully to the
           last checkpoint if one exists; a first-iteration total
           failure has nothing to fall back to and stays a typed
           error. *)
        match last_good with
        | Some (p, t) -> (p, t, false, iter)
        | None -> raise (Fault.Error f))
    | Ok post ->
        nlml := post.Posterior.nlml :: !nlml;
        active_hist := Array.length active :: !active_hist;
        let proceed () =
          let converged =
            match last_nlml with
            | Some prev ->
                abs_float (prev -. post.Posterior.nlml)
                <= config.tol *. Float.max 1.0 (abs_float prev)
            | None -> false
          in
          if converged || iter >= config.max_iter then
            (prior, post, converged, iter)
          else begin
            let prior' = m_step_guarded ~iter ~damp prior post in
            loop prior' (Some (prior, post)) (Some post.Posterior.nlml)
              (iter + 1) damp
          end
        in
        let diverged =
          match last_nlml with
          | Some prev ->
              post.Posterior.nlml
              > prev +. (config.divergence_tol *. Float.max 1.0 (abs_float prev))
          | None -> false
        in
        if diverged && !recoveries < config.max_recoveries then begin
          (match last_nlml with
          | Some prev ->
              Diag.record diag
                (Fault.Em_divergence
                   { iteration = iter; nlml_prev = prev; nlml = post.Posterior.nlml })
          | None -> ());
          incr recoveries;
          match last_good with
          | Some (gp, gpost) when iter < config.max_iter ->
              (* Checkpoint rollback: redo the M-step from the last
                 good (prior, posterior) pair with a damped step. *)
              let damp' = Float.max 0.0625 (damp /. 2.0) in
              let prior' = m_step_guarded ~iter ~damp:damp' gp gpost in
              loop prior' last_good last_nlml (iter + 1) damp'
          | _ -> proceed ()
        end
        else proceed ()
  in
  let prior, post, converged, iterations = loop prior0 None None 1 1.0 in
  let trace =
    {
      iterations;
      nlml_history = Array.of_list (List.rev !nlml);
      active_history = Array.of_list (List.rev !active_hist);
      converged;
      recoveries = !recoveries;
      warm_start;
      diag;
    }
  in
  (prior, post, trace)
