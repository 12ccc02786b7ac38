(** The compact serving form of a fitted C-BMF model.

    A {!t} is everything inference needs and nothing it does not: only
    the {e active} basis terms survive (the EM prunes most of the
    dictionary), together with their standardization constants and the
    finite-dimensional posterior factors (means [mu], per-state
    covariance blocks [cov]).  Prediction is O(a) for the mean and
    O(a²) for the variance per point, where a = [n_active t] — the raw
    dictionary size M never appears at serving time.

    {!predict} is the scalar reference path; [Engine.predict_batch]
    reproduces it bit-identically through blocked kernels (both
    accumulate every dot product in the same sequential index order). *)

open Cbmf_linalg
open Cbmf_basis

type t = {
  input_dim : int;  (** dimension of the raw variation vector x *)
  n_states : int;  (** K *)
  terms : Term.t array;  (** the a active basis terms, in posterior order *)
  col_means : Mat.t;  (** K×a per-state centering of the active columns *)
  col_scales : float array;  (** a pooled column scales (all > 0) *)
  y_means : float array;  (** K per-state response centering *)
  y_scale : float;  (** pooled response scale (> 0) *)
  mu : Mat.t;  (** a×K posterior means, standardized units *)
  lambda : float array;  (** a prior variances of the active terms *)
  r : Mat.t;  (** K×K learned correlation *)
  sigma0 : float;  (** noise sd, standardized units *)
  cov : Mat.t array;  (** K per-state a×a posterior covariance blocks *)
}

val of_fit : dict:Dictionary.t -> Cbmf_core.Cbmf.fitted -> t
(** Project a fitted model onto its active support: looks the active
    standardized columns up through [std.kept] to recover their raw
    dictionary terms and slices the standardization constants down to
    the active set.  Raises [Invalid_argument] if the dictionary does
    not match the fit (wrong size). *)

val of_synthetic : Cbmf_circuit.Synthetic.t -> t
(** A spec-driven serving model straight from synthetic ground truth —
    no EM run required.  Standardization is the identity (zero
    centerings, unit scales), [mu] holds the {e true} coefficients
    restricted to the support (so the predictive mean at any point is
    exactly [Synthetic.mean_at], making the engine path oracle-
    checkable at any (K, a, d)), and the covariance blocks come from
    {!Cbmf_circuit.Synthetic.posterior_cov_blocks}.  This is how the
    >64-state engine stress suites reach shapes the physical
    testbenches cannot. *)

val n_active : t -> int

val validate : t -> (unit, string) result
(** Structural invariants: consistent dimensions everywhere, strictly
    positive scales, finite non-negative [sigma0], term variable
    indices within [input_dim].  The snapshot loader runs this after
    decoding so a corrupted-but-checksummed file can still not smuggle
    an inconsistent model into the registry. *)

val byte_size : t -> int
(** Approximate resident size in bytes (payload floats + boxing
    overhead) — the unit of the registry's eviction budget. *)

val features : t -> state:int -> Vec.t -> Vec.t
(** The standardized active row u for one raw input x (length
    [input_dim]): [u_j = (b_j(x) − col_means[state,j]) / col_scales[j]]
    where b_j is the j-th active term. *)

val predict : t -> state:int -> Vec.t -> float * float
(** [(mean, sd)] in raw response units for one raw input x, including
    both posterior coefficient uncertainty and the observation-noise
    level σ0.  Raises [Invalid_argument] on a bad state index or input
    length. *)

val equal : t -> t -> bool
(** Bit-exact structural equality (floats compared by their IEEE-754
    bit patterns, so NaNs compare equal to themselves) — the test
    oracle for snapshot round-trips. *)
