(** Simultaneous orthogonal matching pursuit (S-OMP) [19] — the
    state-of-the-art baseline the paper compares against.

    S-OMP assumes all states share one sparse model template: at every
    greedy step the basis function maximizing the {e summed} residual
    correlation over all states (paper eq. 33) joins the shared
    support, and each state's coefficients are re-solved independently
    by least squares on that support. *)

open Cbmf_linalg

type result = {
  support : int array;  (** shared template, in selection order *)
  coeffs : Mat.t;  (** K×M, zeros off the support *)
}

val select_next : Dataset.t -> residual:Vec.t array -> exclude:bool array -> int
(** One greedy selection step (eq. 33, with per-state column
    normalization); returns the winning column.  Raises [Not_found] if
    every column is excluded.  Allocation-free: the scores accumulate
    in per-pool-slot scratch ({!Cbmf_parallel.Arena}). *)

val fit : Dataset.t -> n_terms:int -> result
(** Greedy fit with a fixed support size (capped at N and M).

    The per-step least-squares refit is incremental: each state's
    support Gram keeps a bordered Cholesky factor, so adding a column
    costs O(N·a + a²) instead of the naive from-scratch QR's O(N·a²).
    When a border pivot collapses (the new column is numerically in
    the span of the support) the pass degrades, downdate-free, to the
    naive QR refit of {!fit_naive} for the remaining steps and notes a
    [Not_pd] fault in the ambient {!Cbmf_robust.Diag} recorder.  A
    pass that ends before [n_terms] (no admissible column, or a
    rank-deficient refit) returns the completed prefix and notes an
    [Early_stop] fault instead of failing silently. *)

val fit_naive : Dataset.t -> n_terms:int -> result
(** The pre-incremental reference path: a from-scratch QR refit per
    greedy step.  Kept as the oracle for {!fit} — same selection rule,
    same early-stop semantics. *)

val fit_cv :
  Dataset.t -> n_folds:int -> candidate_terms:int array -> result * int
(** Sparsity level chosen by pooled cross-validation, refit on all
    samples.  This is the full baseline configuration used in the
    experiments. *)
