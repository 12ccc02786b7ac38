(** Concurrent snapshot-serving socket server.

    One acceptor thread multiplexes the listening socket against a
    self-pipe (so shutdown interrupts a blocking accept; [EINTR] from
    signals just retries the select).  Accepted connections go through
    a bounded queue to a fixed pool of worker threads, each of which
    serves its connection's requests sequentially until the peer hangs
    up, a timeout fires, or the framing desynchronizes.

    {b Admission control.}  The acceptor never blocks on a full queue:
    when [queue_cap] connections are already pending, a new arrival is
    {e shed} — it immediately gets a typed {!Protocol.Overloaded}
    reply carrying the observed queue depth and a retry hint, and is
    closed.  Under overload the server thus keeps answering (tiny
    refusal frames) instead of silently stalling; sheds are counted in
    {!Stats}.

    {b Deadlines.}  A positive [deadline] gives every request a
    wall-clock budget anchored at the connection's accept time for its
    first request (queue wait counts) and at frame arrival after that.
    Clients can tighten it per request with
    {!Protocol.request.Predict_deadline}.  An expired budget abandons
    the batch mid-computation (chunk granularity, see
    {!Engine.predict_batch}) and answers a typed
    [Error { code = Deadline_exceeded; _ }].

    {b Inline predicts.}  A worker answers a predict by calling
    {!Engine.predict_batch} on its own thread, one engine call per wire
    request; a request bigger than one engine chunk fans out over the
    domain pool.  Requests are never parked or merged: an 8-point
    predict on the K = 32 LNA model costs 10–20 µs of compute, less
    than any batching window would add.

    {b Graceful drain.}  {!request_stop} stops accepting but gives
    queued and in-flight requests up to [drain_timeout] to finish
    normally; only past that window are leftovers cut off (queued
    connections closed, in-flight ones shut down so their worker's
    read fails).  In-flight requests therefore never lose an
    already-computed reply to shutdown.

    {b Failure semantics.}  A request that fails — malformed body,
    unknown snapshot, shape mismatch, a typed {!Cbmf_robust.Fault}
    during load, an expired deadline — produces a typed
    {!Protocol.Error} reply on the same connection; the server never
    dies on bad input.  Only three things end a connection from the
    server side: an unrecoverable framing error, the per-request
    socket timeout, and the drain cutoff.

    {b Chaos sites.}  Four {!Cbmf_robust.Inject} sites exercise the
    failure paths deterministically: [serve.accept_drop] (connection
    dropped between accept and enqueue), [serve.slow_reply] (reply
    delayed), [serve.torn_frame] (reply frame cut mid-write, then
    close) and [serve.worker_crash] (request dropped with no reply,
    connection closed).  All are no-ops unless armed.

    Works identically over Unix-domain ([ADDR_UNIX path]) and TCP
    ([ADDR_INET]) sockets. *)

type config = {
  workers : int;  (** worker threads (default 4) *)
  timeout : float;  (** per-request socket send/receive timeout, s (default 10) *)
  backlog : int;  (** listen backlog (default 16) *)
  queue_cap : int;
      (** pending-connection bound (default 8); arrivals beyond it are
          shed with a typed [Overloaded] reply, never queued blocking *)
  deadline : float;
      (** per-request wall-clock budget in seconds; [0.] (the default)
          disables the server-side deadline *)
  drain_timeout : float;
      (** grace window in seconds for queued and in-flight requests to
          finish after {!request_stop} (default 1) *)
  retry_after_ms : int;
      (** retry hint carried by [Overloaded] replies (default 50) *)
}

val default_config : config

val serve_fd :
  ?stats:Stats.t ->
  ?deadline:float ->
  registry:Registry.t ->
  Unix.file_descr ->
  unit
(** Serve one pre-connected descriptor until the peer hangs up — no
    listener, no threads, same request handling and failure semantics
    as the full server.  [deadline] is the per-request budget in
    seconds ([0.], the default, disables it).  Any number of threads
    may serve descriptors side by side, sharing one registry and
    [stats], exactly like the full server's workers.  A [Shutdown]
    request simply ends the connection.  The descriptor is
    closed on return.  This is the socketpair-loopback entry point the
    tests (and embedders) use. *)

type t

val start :
  ?config:config ->
  ?registry:Registry.t ->
  ?stats:Stats.t ->
  Unix.sockaddr ->
  t
(** Bind, listen and spawn the acceptor + workers.  For [ADDR_UNIX] a
    stale socket file is unlinked first; for [ADDR_INET] the socket is
    [SO_REUSEADDR] and port 0 picks a free port (see {!addr}). *)

val addr : t -> Unix.sockaddr
(** The actually bound address. *)

val registry : t -> Registry.t

val stats : t -> Stats.t

val request_stop : t -> unit
(** Signal shutdown without joining — safe from a worker thread (this
    is what a [Shutdown] request does).  Starts the graceful drain:
    no new connections, existing work gets [drain_timeout] to
    finish. *)

val wait : t -> unit
(** Block until all threads exit (including the drain).  Call from the
    thread that owns the server, not from a worker. *)

val stop : t -> unit
(** [request_stop] then [wait]; idempotent. *)
