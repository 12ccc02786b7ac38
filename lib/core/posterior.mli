(** Structured Bayesian posterior for the C-BMF prior (paper §3.2).

    Implements eqs. (19)–(22) without ever forming the (M·K)-sized
    objects.  With samples ordered state-major, the marginal Gram
    matrix G = σ0²I + D·A·Dᵀ has (k,k′) block R[k,k′]·(B_k Λ B_{k′}ᵀ),
    so one (N·K)-sized Cholesky plus per-basis contractions give

    - μ_m = λ_m·R·v_m          with v_m = (Dᵐ)ᵀ G⁻¹ y,
    - Σ_m = λ_m·R − λ_m²·R·W_m·R   with W_m = (Dᵐ)ᵀ G⁻¹ Dᵐ,

    where Dᵐ touches only state k's rows in column k.  The negative
    log marginal likelihood of eq. (25) falls out of the same
    factorization. *)

open Cbmf_linalg
open Cbmf_model

type path = [ `Dual | `Primal ]
(** Which linear system the posterior was solved through: [`Dual] is
    the NK×NK marginal Gram G = σ0²I + DADᵀ; [`Primal] is the
    (aK)×(aK) Woodbury system P = A⁻¹ + σ0⁻²DᵀD, cheaper in the
    post-pruning regime aK < NK. *)

type t = {
  mu : Mat.t;  (** M×K posterior mean; row m is μ_m (zero if inactive) *)
  sigma_blocks : (int * Mat.t) array;
      (** (m, Σ_m) for every active m — only when requested *)
  active : int array;
  nlml : float;  (** eq. (25): yᵀG⁻¹y + log det G *)
  resid_sq : float;  (** ‖y − D·μ‖² *)
  trace_ginv : float;  (** Tr(G⁻¹) (0 when covariance not requested) *)
  nk : int;
  path : path;  (** solver path actually taken *)
  predictive : state:int -> Vec.t -> float * float;
      (** [(mean, variance)] of the latent model value for one basis row
          (length M, same units as the training design) at one state.
          The variance is the exact posterior-predictive
          [aᵀΣ_p a = aᵀA a − wᵀG⁻¹w] of the coefficient functional —
          add σ0² for the observation noise. *)
  state_cov : unit -> Mat.t array;
      (** K per-state a×a posterior covariance blocks of the {e active}
          coefficients (a = [Array.length active], ordered as [active]):
          block [s] is [Cov(α_{active, s})] = Σ_p restricted to state
          [s]'s active rows/columns.  For any basis row [b] (length M)
          the posterior-predictive variance at state [s] is exactly
          [uᵀ·C_s·u] with [u = b.(active)] — the finite-dimensional Σ
          factor a model snapshot persists so a served model reproduces
          {!predictive}'s variance without the training data.  Computed
          on demand from the cached factorization (O(K·(NK)²·a) dual /
          O((aK)³/6) primal); call once and keep the result. *)
}

type workspace
(** Reusable buffers for the large per-solve allocations (NK×NK Gram
    assembly, flat response).  Thread one workspace through repeated
    [compute] calls (as {!Em.run} does) and the allocation churn drops
    to ~zero after the first call.  Nothing in the returned {!t}
    aliases the workspace, so earlier results stay valid when it is
    reused. *)

val make_workspace : unit -> workspace

val compute :
  ?need_sigma:bool ->
  ?path:[ `Auto | `Dual | `Primal ] ->
  ?ws:workspace ->
  Dataset.t ->
  Prior.t ->
  active:int array ->
  t
(** [compute data prior ~active] evaluates the posterior restricted to
    the active basis set (inactive λ are treated as exactly 0).
    [need_sigma] (default true) additionally computes the Σ_m blocks
    and Tr(G⁻¹) — needed by the EM M-step but not by MAP-coefficient
    extraction.  [path] (default [`Auto]) selects the solver: [`Auto]
    takes the primal (Woodbury) path when aK < NK and every active λ
    is strictly positive, the dual path otherwise; forcing [`Primal]
    requires every active λ > 0.  The dual path's Σ blocks go through
    an explicit G⁻¹, (NK)³/3 multiply-adds at any aK, so a forced
    [`Dual] at aK < NK (the EM fallback hop) pays that where a
    triangular solve against the stacked active designs would pay at
    most (NK)²·aK/2.  Both paths agree with {!naive_dense} to solver
    precision.  [ws] supplies reusable buffers (see {!workspace}). *)

val coefficients : t -> Mat.t
(** K×M coefficient matrix (the MAP solution of eq. 22, transposed
    into the per-state layout used by the rest of the code base). *)

type primal_system = {
  p_mat : Mat.t;
      (** P = A⁻¹ + σ0⁻²·DᵀD, aK×aK, unknowns state-major
          ((s,j) ↦ s·a+j, j indexing [sys_active]) *)
  rhs : Vec.t;  (** c = Dᵀy, same ordering *)
  yty : float;  (** ‖y‖² over all states *)
  log_det_a : float;  (** K·Σ_j log λ_j + a·log det R *)
  sys_active : int array;  (** the active set the system was built on *)
  sys_nk : int;  (** N·K at build time *)
}
(** Everything the primal path derives from the data: the NLML is
    σ0⁻²·(yty − cᵀμ_w) + 2·NK·log σ0 + log_det_a + log det P with
    μ_w = σ0⁻²·P⁻¹c, and the predictive variance at (state, basis row
    b) is the P⁻¹ quadratic form of b's active slice embedded in state
    [state]'s block. *)

val primal_system : Dataset.t -> Prior.t -> active:int array -> primal_system
(** [primal_system d prior ~active] assembles the primal normal system
    through the {e same} helpers (same float-op order) as the [`Primal]
    path of {!compute} — the seed of [Cbmf_active.Update]'s streaming
    rank-one factorization updates.  Requires every active λ > 0. *)

val naive_dense : Dataset.t -> Prior.t -> Mat.t * Mat.t * float
(** Reference implementation that builds the full (M·K) system of
    eqs. (19)–(21) densely: returns (μ as M×K, Σ_p as MK×MK, nlml).
    Exponential-cost guardrails: only for tiny test instances. *)
