(** Ground-truth recovery experiments on synthetic workloads.

    A physical testbench can only score held-out prediction error; a
    {!Cbmf_circuit.Synthetic} workload additionally knows the true
    sparse template and coefficients, so it can score {e recovery}:
    support F1 against the planted support and entry-wise coefficient
    RMSE.  This module runs those scores over a
    (spec × sample-budget × method) grid — the evidence behind the
    paper's central claim that exploiting cross-state correlation
    recovers the truth from fewer simulations. *)

open Cbmf_circuit
open Cbmf_model

type method_ = [ `Cbmf | `Uncorrelated | `Somp_ols ]
(** [`Cbmf]: the full correlated fit.  [`Uncorrelated]: the ablation
    with R frozen at identity and r0 = 0 (shared template only).
    [`Somp_ols]: plain S-OMP selection with per-state least squares —
    the non-Bayesian baseline. *)

val method_name : method_ -> string

type cell = {
  spec : Synthetic.spec;
  n_per_state : int;  (** training sample budget *)
  method_ : method_;
  f1 : float;  (** support-recovery F1 vs the planted support *)
  precision : float;
  recall : float;
  coeff_rmse : float;  (** entry-wise RMSE vs the planted K×M α *)
  test_error : float;  (** pooled relative RMS on held-out data *)
  path : string;  (** posterior path at this shape: "dual"/"primal"; "-" for S-OMP *)
  seconds : float;  (** wall-clock time of the fit *)
}

val cbmf_config : Synthetic.spec -> Cbmf_core.Cbmf.config
(** Small grids sized to a synthetic spec (the planted support size
    bounds the useful θ) — recovery grids run many fits, so the full
    paper grid would be waste. *)

val posterior_path : Synthetic.t -> Dataset.t -> string
(** Which solver ([`Auto]) the posterior takes on this dataset when
    restricted to the {e true} support — "dual" or "primal". *)

val run_method :
  truth:Synthetic.t -> train:Dataset.t -> test:Dataset.t -> method_ -> cell
(** Fit one method on one training set and score it against the truth. *)

val run_grid :
  ?n_test:int ->
  ?methods:method_ list ->
  specs:Synthetic.spec array ->
  budgets:int array ->
  unit ->
  cell array
(** The full grid, one truth per spec (training sets of different
    budgets nest as prefixes, exactly like a reused simulation
    archive).  [n_test] (default 30) held-out samples per state score
    [test_error].  Cells are ordered spec-major, then budget, then
    method. *)

val table_spec : Synthetic.spec
(** The correlated, low-budget workload of the recovery table: K = 12
    states, M = 31, d = 15, 4 active terms, ρ = 0.9, σ = 0.05,
    seed 5.  Each state alone is underdetermined at these budgets, so
    sharing across states is what recovers the planted support. *)

val table : unit -> cell array
(** The recovery table EXPERIMENTS.md reports and
    [cbmf_repro recovery] prints: [`Cbmf] and [`Uncorrelated] on
    {!table_spec} at budgets 4, 6 and 8 samples per state, 25
    held-out samples per state. *)

val pp_cells : Format.formatter -> cell array -> unit
(** Aligned table, one row per cell. *)
