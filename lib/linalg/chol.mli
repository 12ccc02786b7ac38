(** Cholesky factorization of symmetric positive definite matrices and
    the solves, inverses and determinants built on it.

    A factorization holds the lower-triangular factor [l] with
    [a = l lᵀ].  All solve routines are O(n²) once the factor exists. *)

type t

exception Not_positive_definite of int
(** Raised with the failing pivot index when a matrix is not (numerically)
    positive definite. *)

val factorize : ?jitter:float -> Mat.t -> t
(** [factorize a] computes the lower Cholesky factor of symmetric
    positive definite [a].  [jitter] (default [0.]) is added to the
    diagonal before factorizing — useful for nearly-singular PD
    matrices.  Raises {!Not_positive_definite} on failure.  Only the
    lower triangle of [a] is read. *)

val factorize_with_retry : ?max_tries:int -> Mat.t -> t
(** Like {!factorize} but on failure retries with exponentially growing
    jitter, starting from [1e-12 · max_abs a] and capped at
    [1e-2 · mean |diag a|] — past that scale the repaired matrix would
    be mostly jitter.  The jitter that was finally applied is recorded
    in the result (see {!jitter}); a recovery that needed jitter is
    noted in the ambient {!Cbmf_robust.Diag} recorder.  Raises a typed
    [Cbmf_robust.Fault.Error (Not_pd _)] after [max_tries] (default 8)
    failed retries.  Honors the ["chol.factorize"] injection site. *)

val jitter : t -> float
(** Diagonal boost that was applied before the successful
    factorization ([0.] when the first attempt succeeded). *)

val dim : t -> int

val lower : t -> Mat.t
(** The lower-triangular factor [l] (fresh copy). *)

val solve_vec : t -> Vec.t -> Vec.t
(** [solve_vec f b] solves [a x = b]. *)

val solve_mat : t -> Mat.t -> Mat.t
(** [solve_mat f b] solves [a x = b] for all columns at once via
    panel-blocked forward + backward substitution. *)

val solve_lower : t -> Vec.t -> Vec.t
(** [solve_lower f b] solves [l z = b] (forward substitution only);
    useful for whitening since [zᵀz = bᵀ a⁻¹ b]. *)

val solve_lower_mat : t -> Mat.t -> Mat.t
(** [solve_lower_mat f b] solves [l x = b] for all columns at once
    (multi-RHS TRSM).  Columns are processed in panels that stream
    contiguous rows; leading all-zero rows of a panel are skipped, so
    sparse stacked right-hand sides (block-diagonal designs, identity
    columns) pay only for their nonzero row range. *)

val solve_lower_mat_inplace : t -> Mat.t -> unit
(** In-place variant of {!solve_lower_mat}: overwrites [b] with the
    solution (no allocation — for workspace-reusing hot paths). *)

val inverse : t -> Mat.t
(** [a⁻¹] (symmetric). *)

val log_det : t -> float
(** [log det a]. *)

val det : t -> float

val quad_inv : t -> Vec.t -> float
(** [quad_inv f b] is [bᵀ a⁻¹ b], computed stably via {!solve_lower}. *)

val trace_inverse : t -> float
(** [Tr(a⁻¹)] in O(n³/3) without forming the inverse. *)

val lower_inverse_t : t -> Mat.t
(** [(l⁻¹)ᵀ] as a dense matrix: row [u] holds [l⁻¹·e_u] (supported on
    columns ≥ u), computed in O(n³/6).  Selected entries of [a⁻¹] are
    then contiguous row dots, [a⁻¹[u,v] = Σ_w out[u,w]·out[v,w]] —
    cheaper than a full inverse when only a few entries are needed. *)

val mahalanobis_sq : t -> Vec.t -> Vec.t -> float
(** [mahalanobis_sq f x mu] is [(x-mu)ᵀ a⁻¹ (x-mu)]. *)

val sample_transform : t -> Vec.t -> Vec.t
(** [sample_transform f z] is [l z]; maps iid standard normals to
    draws with covariance [a]. *)

val rank1_update : t -> Vec.t -> unit
(** [rank1_update f v] updates the factorization in place so that it
    factors [a + v·vᵀ] (classic "cholupdate", O(n²)).  [v] is
    destroyed.  The reference kernel: production update sequences run
    on {!Updatable}, which is bit-identical to it. *)

val copy : t -> t
(** Independent copy of the factorization (for snapshot/rollback
    around {!rank1_update} sequences). *)

val of_scaled_identity : int -> float -> t
(** Factorization of [c·I] ([c > 0]) without building the matrix —
    the natural seed for incremental rank-1 construction. *)

(** A lower Cholesky factor built for long sequences of rank-one
    updates.

    The factor is stored column-major, so the update's column sweep and
    the transposed back substitution read contiguous memory.  Updates
    start at the first nonzero of the update vector: a rotation against
    a zero entry is exactly the identity, so skipping it changes no bit.
    For a block-structured vector whose leading blocks are zero (the
    greedy initializer's E_s·L_R·e_j, an active-learning sample's
    state-embedded row) that removes most of the work.

    Every operation is bit-identical to its {!Chol} counterpart on the
    same factor — {!rank1_update}, {!solve_vec}, {!quad_inv},
    {!log_det} — for finite inputs and factors without negative-zero
    entries (which updates from a positive start do not create). *)
module Updatable : sig
  type chol := t

  type t

  val scaled_identity_into : float array -> int -> float -> t
  (** [scaled_identity_into buf n c] is the factor of [c·I] ([c > 0])
      stored in [buf] (length [n·n], overwritten) — a caller can keep
      the n² buffer in per-worker scratch and reset it for each new
      factor.  The factor owns [buf] until the caller reuses it. *)

  val of_chol : chol -> t
  (** Copy of an existing factorization, in the updatable layout. *)

  val lower : t -> Mat.t
  (** The lower-triangular factor (fresh copy). *)

  val rank1_update : t -> Vec.t -> unit
  (** Factor [a + v·vᵀ] in place, O((n − p)²) where [p] is the index of
      the first nonzero of [v].  [v] is destroyed. *)

  val solve_vec : t -> Vec.t -> Vec.t
  (** [a x = b]. *)

  val quad_inv : t -> Vec.t -> float
  (** [bᵀ a⁻¹ b], O((n − p)²) where [p] is the index of the first
      nonzero of [b]. *)

  val log_det : t -> float
  (** [log det a]. *)
end

val is_positive_definite : Mat.t -> bool
(** Whether symmetric [a] admits a Cholesky factorization. *)

val nearest_pd_inplace : ?floor:float -> Mat.t -> unit
(** Project a symmetric matrix onto the PD cone (approximately) by
    symmetrizing and raising the diagonal until {!factorize} succeeds;
    [floor] (default [1e-10]) scales the initial diagonal boost.  Cheap
    guard used by EM updates. *)
