(** Streaming rank-one updates to the primal-path posterior.

    The active-learning loop appends one simulated sample at a time;
    refitting from scratch would cost a fresh O((aK)³) factorization
    per sample.  This module keeps the aK×aK Cholesky factor of
    P = A⁻¹ + σ0⁻²·DᵀD alive instead: a new sample (state s, basis row
    b, response y) adds σ0⁻²·b̃b̃ᵀ to P (b̃ = b's active slice embedded
    in state s's block), which is one
    {!Cbmf_linalg.Chol.Updatable.rank1_update} — O((aK)²), and only
    O((aK − s·a)²) since the update skips the zero blocks of the states
    before s — plus O(a) bookkeeping on c = Dᵀy, ‖y‖² and NK.  The
    posterior mean, predictive variance and NLML all read off the
    updated factor in O((aK)²), so the per-sample cost is o(full
    refit) by a factor of aK.

    The updater is exact for {e fixed} hyper-parameters Ω = {λ, R, σ0}
    and active set: an updated state agrees with a from-scratch
    {!Cbmf_core.Posterior.compute} on the grown dataset to
    factorization round-off (the parity tests pin ≤ 1e-8).  Hyper-
    parameter motion is handled by the loop's periodic warm-started EM
    resync, which rebuilds the updater via {!create}.

    Appends may be ragged (any state, any order) — P's math never
    requires equal per-state counts, only the seeding
    {!Cbmf_model.Dataset.t} does. *)

open Cbmf_linalg
open Cbmf_model
open Cbmf_core

type t

val create : Dataset.t -> Prior.t -> active:int array -> t
(** Seed the updater from a dataset: assembles the primal system via
    {!Cbmf_core.Posterior.primal_system} (same float-op order as the
    [`Primal] path) and factorizes it once.  Requires every active
    λ > 0. *)

val append : t -> state:int -> row:Vec.t -> y:float -> unit
(** [append t ~state ~row ~y] folds one sample in: [row] is the full
    M-length basis row (inactive columns are ignored).  O((aK)²). *)

val append_round : t -> rows:Vec.t array -> ys:float array -> unit
(** One sample per state (rows.(s), ys.(s)) — the loop's per-round
    append, K rank-one updates. *)

val mean : t -> Mat.t
(** M×K posterior mean under the current factorization (lazily solved,
    cached until the next append).  Rows off the active set are 0. *)

val coefficients : t -> Mat.t
(** K×M transpose of {!mean} — the layout the rest of the code base
    uses. *)

val nlml : t -> float
(** The exact primal-path NLML of the data seen so far:
    σ0⁻²(‖y‖² − cᵀμ_w) + 2·NK·log σ0 + log det A + log det P. *)

val variance : t -> state:int -> Vec.t -> float
(** Predictive posterior variance of the coefficient functional for a
    full M-length basis row at one state — the acquisition score.
    Exactly the [`Primal] path's quadratic form against the updated
    factor (add σ0² for observation noise).  Safe to call from pool
    workers: it only reads the factorization. *)

val predictive : t -> state:int -> Vec.t -> float * float
(** [(mean, variance)] of the latent model value — {!mean}'s dot with
    the row plus {!variance}.  Not worker-safe unless {!mean} (or
    {!nlml}) was forced since the last append. *)

val nk : t -> int
(** Total samples folded in (seed + appended). *)

val n_states : t -> int

val n_basis : t -> int

val appended : t -> int
(** Samples appended since {!create}. *)

val active : t -> int array
(** The active set the factorization lives on. *)
