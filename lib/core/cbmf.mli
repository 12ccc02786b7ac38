(** Correlated Bayesian Model Fusion — Algorithm 1, end to end.

    [fit] standardizes the dataset, runs the modified-S-OMP
    cross-validated initialization (steps 1–17), refines the
    hyper-parameters by EM (steps 18–20), and maps the MAP coefficients
    back to raw units.  The result predicts any state's performance
    from a design-matrix row. *)

open Cbmf_linalg
open Cbmf_model

type config = {
  init : Init.config;
  em : Em.config;
}

val default_config : config

val fast_config : config
(** Smaller grids and iteration caps — for tests and quick sweeps. *)

val independent_config : config
(** Ablation: magnitude correlation disabled (R frozen at identity,
    r0 grid = {0}) — isolates the paper's claimed contribution over
    shared-template-only methods. *)

val init_only_config : config
(** Ablation: skip the EM refinement (steps 18–20). *)

type info = {
  r0 : float;  (** initializer's winning correlation decay *)
  sigma0_init : float;
  theta : int;  (** initializer's winning support size *)
  init_cv_error : float;
  em_iterations : int;
  em_converged : bool;
  nlml_history : float array;
  final_active : int;  (** basis functions surviving EM pruning *)
  final_sigma0 : float;  (** standardized units *)
  final_r : Mat.t;  (** K×K learned correlation *)
  fit_seconds : float;  (** wall-clock time of the whole fit *)
}

type fitted = {
  std : Standardize.params;
      (** the standardization learned at fit time — maps raw dictionary
          rows into the space the posterior lives in *)
  active : int array;
      (** active columns of the {e standardized} problem (indices into
          [std.kept]) — the basis functions that survived EM pruning *)
  mu : Mat.t;
      (** a×K posterior means of the active standardized coefficients
          (row j = coefficient of active term j across states): for a
          standardized row restricted to [active], [uᵀ·mu[:,s]] is the
          predictive mean in standardized units *)
  lambda : Vec.t;  (** their λ, standardized units, one per active *)
  r : Mat.t;  (** K×K learned correlation *)
  sigma0 : float;  (** noise standard deviation, standardized units *)
  cov : Mat.t array;
      (** K per-state a×a posterior covariance blocks of the active
          coefficients (see {!Posterior.state_cov}): for a standardized
          row restricted to [active], [uᵀ·cov.(s)·u] is the predictive
          variance, to which σ0² adds the observation noise — all in
          standardized units; multiply by [std.y_scale]² for raw. *)
}
(** Everything a consumer needs to {e predict} (mean and variance) at
    any [(x, state)] without the training data, the EM state or any
    closure — the serializable fitted-model view that
    [Cbmf_serve.Snapshot] persists. *)

type model = {
  coeffs : Mat.t;  (** K×M, raw units — eq. (1)'s α *)
  info : info;
  uncertainty : state:int -> Vec.t -> float * float;
      (** [(mean, sd)] in raw units for one raw dictionary row,
          including both posterior coefficient uncertainty and the
          observation-noise level σ0 — what the MAP-only paper does not
          expose but the Bayesian posterior provides for free. *)
  view : fitted Lazy.t;
      (** the serializable view, materialized on first use (forcing it
          extracts the posterior covariance blocks from the cached
          factorization — cheap next to the fit itself) *)
}

val fit : ?config:config -> ?init_hypers:Prior.t -> Dataset.t -> model
(** [fit d] runs the full pipeline: standardize → initializer grid →
    EM → unstandardize.  [init_hypers] (standardized-space Ω from a
    previous fit) skips the initializer grid entirely and warm-starts
    the EM there — the initializer fields of [info] are then neutral
    (r0 = 0, cv_error = 0, θ = #{λ > 0}) and the EM trace records
    [warm_start = true]. *)

val fitted_view : model -> fitted
(** Force and return {!model.view}. *)

val active_raw : fitted -> int array
(** The active support as {e raw} dictionary column indices (through
    [std.kept]), sorted ascending — comparable against a synthetic
    ground-truth support, which lives in raw column coordinates. *)

val predict_state : model -> design:Mat.t -> state:int -> Vec.t
(** ŷ_k = B_k α_k. *)

val test_error : model -> Dataset.t -> float
(** Pooled relative RMS on an independent dataset. *)
