(** Multi-state regression dataset.

    One dataset holds, for every knob state k, the design matrix
    B_k (N×M, eq. 3 of the paper) and the response vector y_k (one
    performance of interest).  All states share the same dictionary
    (column m of every B_k is the same basis function) and the same
    sample count N. *)

open Cbmf_linalg

type t = private {
  n_states : int;  (** K *)
  n_samples : int;  (** N, per state *)
  n_basis : int;  (** M *)
  design : Mat.t array;  (** B_k, N×M *)
  response : Vec.t array;  (** y_k, length N *)
  norms_cache : Vec.t option array;
      (** lazily filled per-state column norms — use {!column_norms} *)
  bty_cache : Vec.t option array;
      (** lazily filled per-state [B_kᵀ y_k] — use {!bty} *)
}

val create : design:Mat.t array -> response:Vec.t array -> t
(** Validates that all states agree on N and M. *)

val append_rows : t -> design:Mat.t array -> response:Vec.t array -> t
(** [append_rows d ~design ~response] is a fresh dataset with
    [design.(k)] (n_new×M) stacked under state [k]'s rows and
    [response.(k)] appended to its responses — the streaming growth
    step of the active-learning loop.  The new dataset's caches start
    empty and fill lazily like any other's.  The parent is
    unchanged. *)

val append_row : t -> rows:Vec.t array -> ys:float array -> t
(** One-sample-per-state convenience wrapper over {!append_rows}:
    [rows.(k)] is state [k]'s new basis row (length M), [ys.(k)] its
    response. *)

val column_norms : t -> int -> Vec.t
(** [column_norms d k] is {!Cbmf_basis.Dictionary.column_norms} of
    [d.design.(k)], computed once per design matrix and cached — the
    greedy selection loops (S-OMP, OMP, Algorithm 1) call this every
    iteration, turning an O(N·M·θ) recomputation into O(N·M).  Returns
    the cached array itself: do not mutate. *)

val bty : t -> int -> Vec.t
(** [bty d k] is [B_kᵀ y_k], cached like {!column_norms} — the
    right-hand side every support refit slices from.  Returns the
    cached array itself: do not mutate. *)

val warm_caches : t -> unit
(** Force {!column_norms} and {!bty} for every state.  Hot paths that
    fan work over a shared dataset ({!Cbmf_core.Init.run}) call this
    before the parallel region so worker domains only read. *)

val truncate_samples : t -> n:int -> t
(** Keep the first [n] samples of every state. *)

val select_rows : t -> int array array -> t
(** [select_rows d idx] keeps rows [idx.(k)] of state [k] (allows
    duplication/reordering; used by cross-validation). *)

val select_states : t -> int array -> t
(** [select_states d states] copies the given states, in the given
    order, into a new dataset. *)

val split_fold : t -> n_folds:int -> fold:int -> t * t
(** [(train, test)] for deterministic interleaved folds: sample [i] of
    every state belongs to fold [i mod n_folds].  Interleaving keeps
    fold sizes balanced for any N. *)

type invalid_row = {
  state : int;
  row : int;
  col : int;  (** first non-finite design column, or [-1] for the response *)
}

type report = { n_rows : int; invalid : invalid_row array }

val validate : t -> (unit, report) result
(** Screen every design and response entry for NaN/Inf.  Returns a
    row-granular structured report of the offenders — one entry per
    invalid (state, row), in (state, row) order.  A dataset with even
    one non-finite entry poisons every downstream factorization, so
    {!Em.run} rejects such inputs up front. *)

val validate_exn : t -> unit
(** Like {!validate} but raises a typed
    [Cbmf_robust.Fault.Error (Non_finite _)] summarizing the report. *)

val response_norm : t -> float
(** sqrt(Σ_k ‖y_k‖²) — denominator of pooled relative errors. *)

val total_samples : t -> int
(** N·K. *)

val state_design : t -> int -> Mat.t

val state_response : t -> int -> Vec.t
