(** Batched prediction over a serving model.

    [predict_batch] evaluates a whole batch in one pass: the active
    basis rows are materialized once, points sharing a state are
    grouped, and each group's predictive variances come from one
    blocked [Mat.matmul_nt] against that state's covariance block
    instead of a matrix-vector product per point.  Batch chunks fan
    out over a {!Cbmf_parallel.Pool}.

    {b Concurrent callers.}  Any number of systhreads may call
    {!predict_batch} at once (a server's workers do): its scratch is
    allocated per call, never shared through a per-domain
    {!Cbmf_parallel.Arena} slot.

    {b Determinism.}  Results are bit-identical for any domain count:
    chunk boundaries are a fixed constant (independent of the pool
    size), every output location is written by exactly one index, and
    every kernel involved accumulates in sequential index order.  A
    batch of one is bit-identical to {!Model.predict}. *)

open Cbmf_linalg
open Cbmf_parallel

val chunk_size : int
(** The fixed fan-out granularity (points per pool task): 64.
    Independent of the pool size, so chunk boundaries (and hence
    results) are bit-identical at any [CBMF_DOMAINS]. *)

val deadline_site : string
(** ["serve.deadline"] — the site carried by the typed
    {!Cbmf_robust.Fault.Early_stop} fault {!predict_batch} raises when
    its [deadline] expires. *)

val predict_batch :
  ?pool:Pool.t ->
  ?deadline:float ->
  Model.t ->
  states:int array ->
  xs:Mat.t ->
  float array * float array
(** [predict_batch m ~states ~xs] predicts point [i] of [xs] (rows are
    raw inputs of length [m.input_dim]) at knob state [states.(i)];
    returns [(means, sds)] in raw response units, the sd including the
    observation-noise level σ0 — exactly {!Model.predict} per point.
    [pool] defaults to {!Pool.default}.  Raises [Invalid_argument] on
    shape mismatches or out-of-range states.

    [deadline] is an absolute wall-clock instant ([Unix.gettimeofday]
    scale).  When given, the budget is checked before every chunk; a
    budget expires at that instant (so a zero budget always does),
    and an expired budget abandons the batch by raising the typed fault
    [Fault.Early_stop { site = deadline_site; _ }] instead of
    finishing and replying late.  [None] (the default) adds no checks
    and no cost — the fault-free path is bit-identical to before. *)

val predict : Model.t -> state:int -> Vec.t -> float * float
(** Batch of one, through the batch path.  Equal to {!Model.predict}
    bit-for-bit (asserted by the test suite). *)
