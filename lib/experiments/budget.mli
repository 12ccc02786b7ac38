(** Accuracy vs simulated-sample budget: the active-learning loop
    against the fixed-grid baseline.

    Both arms consume {e exactly} the same number of simulator calls
    and share one fitting route — cold EM from the same all-ones prior
    with the same config (the active arm re-fits warm-started every
    round, checkpointing at each budget) — so the only difference is
    {e where} the samples were placed: iid device draws (the paper's
    fixed grid, replayed by prefix truncation) versus
    predictive-variance acquisition from a candidate pool.  Scoring is
    against the synthetic ground truth: support F1 / precision /
    recall, coefficient RMSE, and held-out pooled test error. *)

open Cbmf_circuit

type point = {
  n_per_state : int;
  n_total : int;  (** simulator calls = n_per_state · K *)
  f1 : float;
  precision : float;
  recall : float;
  coeff_rmse : float;
  test_error : float;
}

type series = { label : string; points : point array }

type summary = {
  target_f1 : float;  (** baseline support-F1 at the largest budget *)
  target_rmse : float;  (** baseline coefficient RMSE at the largest budget *)
  grid_reach : int option;
      (** smallest grid budget (samples/state) reaching both targets
          (RMSE with 5% slack) *)
  active_reach : int option;  (** same for the active loop *)
  savings_pct : float option;
      (** 100·(1 − active_reach/grid_reach); [None] if either arm
          never reaches the targets *)
}

type result = {
  spec : Synthetic.spec;
  grid : series;
  active : series;
  summary : summary;
}

val run :
  ?em:Cbmf_core.Em.config ->
  ?n0:int ->
  ?pool_size:int ->
  ?policy:Cbmf_active.Acquire.policy ->
  ?n_test:int ->
  ?budgets:int array ->
  Synthetic.spec ->
  result
(** [run spec] evaluates both arms at every budget (samples per state;
    default n0+2, n0+4, … n0+14) and summarizes the sample savings.
    [em] is the EM budget shared by both arms (default 15 iterations,
    tol 1e-4).
    Deterministic from the spec.  Raises [Invalid_argument] if a
    budget does not exceed [n0] (the loop's warm-up grid). *)

val pp_result : Format.formatter -> result -> unit
(** The EXPERIMENTS.md table: one row per (method, budget), then the
    reach/savings summary line. *)
