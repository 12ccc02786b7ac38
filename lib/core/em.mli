(** Expectation-maximization over the C-BMF hyper-parameters
    (paper §3.3, eqs. 26–31).

    Each iteration computes the structured posterior (E-step) and then
    re-estimates Ω = {λ, R, σ0} (M-step):

    - λ_m ← Tr(R⁻¹(Σ_m + μ_m μ_mᵀ)) / K            (eq. 29)
    - R   ← (1/|A|) Σ_{m∈A} (Σ_m + μ_m μ_mᵀ)/λ_m    (eq. 30)
    - σ0² ← (‖y − Dμ‖² + σ0²(NK − σ0²·Tr G⁻¹)) / NK (eq. 31, using the
      exact identity Tr(DΣDᵀ) = σ0²(NK − σ0²·Tr G⁻¹))

    λ·R has a scale ambiguity, so R is renormalized to unit mean
    diagonal, symmetrized and ridge-stabilized after every update;
    basis functions whose λ collapses are pruned from the active set
    (standard sparse-Bayesian-learning pruning). *)

open Cbmf_linalg
open Cbmf_model

type config = {
  max_iter : int;
  tol : float;  (** relative NLML change for convergence *)
  prune_tol : float;  (** λ pruning threshold relative to max λ *)
  warm_iters : int;
      (** iterations during which nothing is pruned, giving the full
          posterior a chance to resurrect basis functions the greedy
          initializer missed *)
  update_r : bool;  (** false freezes R (ablation) *)
  update_sigma0 : bool;
      (** eq. 31's ML noise update.  Default false: the update converges
          to the DOF-corrected {e training} residual, which badly
          underestimates the held-out noise when the model error is a
          structured nonlinear residual rather than iid noise (as with
          any deterministic simulator), destabilizing the shrinkage.
          The cross-validated σ0 from the initializer is kept instead;
          enabling this applies eq. 31 with a floor at 0.9× the
          initializer's held-out error. *)
  r_ridge : float;  (** diagonal added to R after each update *)
  min_sigma0 : float;
  min_active : int;  (** never prune below this many basis functions *)
  max_recoveries : int;
      (** budget of recovery actions (posterior fallbacks, M-step
          skips, divergence rollbacks) before the loop stops trying to
          self-heal and finishes with its best state *)
  divergence_tol : float;
      (** relative NLML increase treated as divergence; generous by
          default (0.5) because warm-up pruning legitimately jumps the
          NLML *)
}

val default_config : config

val prune : config -> iter:int -> Vec.t -> int array
(** Active set for the next E-step: columns with λ above the relative
    floor, falling back deterministically (largest λ first, ties broken
    by column index) to the top [min_active] columns when pruning would
    leave too few — e.g. when every λ is zero.  Exposed for tests. *)

type trace = {
  iterations : int;
  nlml_history : float array;  (** one value per E-step, in order *)
  active_history : int array;  (** active-set size per iteration *)
  converged : bool;
  recoveries : int;  (** recovery actions taken (0 for a clean run) *)
  warm_start : bool;
      (** true iff the run was seeded through [?init_hypers] (a
          streaming resync) rather than the cold [prior0] *)
  diag : Cbmf_robust.Diag.t;
      (** every fault seen and recovered from during the run *)
}

val run :
  ?config:config ->
  ?posterior:
    (?need_sigma:bool -> Dataset.t -> Prior.t -> active:int array -> Posterior.t) ->
  ?diag:Cbmf_robust.Diag.t ->
  ?init_hypers:Prior.t ->
  Dataset.t ->
  Prior.t ->
  Prior.t * Posterior.t * trace
(** [run data prior0] iterates EM from [prior0] and returns the final
    hyper-parameters, the posterior under them, and the trace.
    [posterior] overrides the E-step solver (default:
    {!Posterior.compute} with one shared {!Posterior.workspace} for the
    whole run) — [bench/e2e] uses this to time each E-step inside
    the real EM loop.
    [init_hypers] warm-starts the run: the supplied Ω = {λ, R, σ0}
    replaces [prior0] as the first iterate (shape-checked against it),
    [trace.warm_start] records the entry, and everything downstream is
    the standard loop — the active-learning resync path, where the
    previous fit's hyper-parameters are a far better start than the
    grid initializer's.

    Robustness: the dataset is validated ({!Dataset.validate_exn}) on
    entry; every E-step runs behind a fallback chain (auto path → dual
    path → jittered dual retry) with a NaN/Inf watchdog; M-step faults
    skip the update instead of crashing; a relative NLML increase
    beyond [divergence_tol] triggers a rollback to the last-good
    hyper-parameters with step damping.  All recoveries are recorded in
    [diag] (also installed as the ambient {!Cbmf_robust.Diag} recorder
    for the duration of the run, so deeper layers such as
    {!Cbmf_linalg.Chol.factorize_with_retry} report into it).  A
    fault-free run is bit-identical to the unguarded loop. *)
