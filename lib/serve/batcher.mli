(** Cross-connection dynamic batching between the worker pool and the
    engine.

    Worker threads {!submit} predict requests from any connection; a
    single drainer thread coalesces whatever is pending into merged
    {!Engine.predict_batch} calls (grouped by physical model, FIFO,
    never splitting one request) and fans the answers back out.

    {b Bit-identity.}  The engine's per-point arithmetic is
    independent of batch composition, so a coalesced reply is
    bit-identical to the per-request one — at any [CBMF_DOMAINS].  The
    batcher changes throughput and tail latency, never a single output
    bit (asserted by the serve.batcher tests and by the
    replies-bit-identical oracle of [bench/e2e]).

    {b Flush policy.}  The batching window runs from the {e first}
    pending request's enqueue timestamp, so it only ever delays the
    idle→busy edge; under sustained load the drainer turns around
    immediately after each merged call and throughput is
    compute-bound.  Reaching [max_points] pending flushes early.  A
    window of 0 makes {!submit} call the engine inline — bit- and
    latency-identical to the unbatched server.

    {b Deadlines.}  A request's absolute deadline is honoured exactly
    as if it were served alone: expired requests are dropped before
    compute, a merged call carries the {e loosest} member budget (so
    an engine-level abort implies every member expired), and each
    member's own budget is re-checked after compute — coalescing never
    silently extends a budget. *)

open Cbmf_linalg
open Cbmf_parallel

type t

val create :
  ?stats:Stats.t ->
  ?pool:Pool.t ->
  window_us:int ->
  max_points:int ->
  unit ->
  t
(** When [window_us > 0] a drainer thread starts immediately; 0 starts
    nothing and {!submit} calls the engine inline.  [max_points] caps
    the points of one merged engine call.  The serving defaults live
    in {!Server.default_config}.  [stats] receives the batch-wait /
    compute phase split and the occupancy histogram.  Raises
    [Invalid_argument] when [window_us < 0] or [max_points < 1]. *)

val submit :
  t ->
  ?deadline:float ->
  model:Model.t ->
  states:int array ->
  xs:Mat.t ->
  unit ->
  float array * float array
(** Block until this request's slice of a merged call (or its solo
    call) completes; returns exactly what
    [Engine.predict_batch ?deadline model ~states ~xs] would, and
    raises exactly what it would raise ([Invalid_argument] on shape
    errors, the typed deadline fault on budget exhaustion) — callers
    keep their existing handlers.  [deadline] is absolute
    ({!Unix.gettimeofday} scale), anchored wherever the caller
    anchored it. *)

val stop : t -> unit
(** Flush everything still pending, then join the drainer.  Idempotent.
    Late {!submit}s fall back to direct engine calls rather than
    stranding. *)
