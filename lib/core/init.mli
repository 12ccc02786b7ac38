(** Hyper-parameter initialization: the modified S-OMP of Algorithm 1,
    steps 1–17.

    The hyper-parameter space is reduced to (r0, σ0, θ): R follows the
    single-parameter decay model of eq. 32, λ is inferred implicitly by
    greedy basis selection, and the triple is chosen by C-fold
    cross-validation.  Inside the greedy loop the coefficients are
    solved by the {e Bayesian} inference (eqs. 20–22 restricted to the
    current support with λ = 1 and R = R(r0)) — the difference from
    plain S-OMP — implemented incrementally with rank-K Cholesky
    updates so that one pass over θ = 1…θ_max prices every θ candidate
    at once.

    Expects a standardized dataset (see {!Standardize}). *)

open Cbmf_model

type config = {
  r0_grid : float array;
  sigma0_grid : float array;  (** absolute, on standardized responses *)
  theta_max : int;  (** greedy pass length (capped by train rows − 1) *)
  n_folds : int;
  lambda_off : float;  (** λ for off-support bases in the EM seed *)
}

val default_config : config

type result = {
  support : int array;  (** selected template, in selection order *)
  r0 : float;
  sigma0 : float;
  theta : int;
  cv_error : float;  (** CV error of the winning triple *)
  prior : Prior.t;  (** Algorithm 1 step 17: the EM starting point *)
}

val greedy_pass :
  train:Dataset.t ->
  test:Dataset.t option ->
  r0:float ->
  sigma0:float ->
  theta_max:int ->
  int array * float array
(** One incremental modified-S-OMP pass: returns the selected columns
    (selection order) and, when [test] is given, the pooled test error
    after each step (length = number of steps actually taken). *)

val run : ?config:config -> Dataset.t -> result
(** The whole initializer: the (r0, σ0, θ) cross-validation grid, then
    a refit of the winning triple on all samples.  Raises
    [Invalid_argument] naming both numbers unless
    [2 <= config.n_folds <= n_samples] (every fold needs a test row in
    every state), before any other work. *)
