(** Consistent-hash sharding of the model namespace over several
    server processes.

    {b Placement} is a pure function of the model {e name} — never the
    model value or its reload generation — so a hot reload keeps
    routing to the same shard, and every client derives the same
    placement from nothing but (shard count, name).  The ring carries
    64 virtual points per shard; changing the shard count N → N+1
    moves only ~1/(N+1) of the namespace, where a [hash mod N] scheme
    would move almost all of it.

    Three layers, composable independently:
    - {!ring}/{!place} — the bare placement function;
    - {!router} — one logical client over N per-shard connections
      (lazily dialed, cached, redialed once {!Client.broken}), handing
      out the owner's connection for every named operation;
    - {!start}/{!connect}/{!stop} — a fork-per-shard cluster of full
      {!Server}s on Unix-domain sockets ["<base>.shard-<i>"].

    For tests, a router over [socketpair]-backed {!Client.t}s (one
    {!Server.serve_fd} thread per shard) gives multi-shard routing
    with no processes or ports — the generalized loopback-smoke
    pattern. *)

(** {1 Placement} *)

type ring

val ring : int -> ring
(** [ring n] places over shards [0 .. n-1], 64 virtual points per
    shard.  Raises [Invalid_argument] when [n] is below 1. *)

val shards : ring -> int

val place : ring -> string -> int
(** The shard owning this model name: first ring point clockwise from
    the name's hash ([Codec.fnv64] passed through a full-avalanche
    64-bit finalizer, so names sharing a prefix still spread). *)

(** {1 Routed client} *)

type router

val router : (int -> Client.t) -> shards:int -> router
(** [router connect ~shards] dials shard [i] with [connect i] on first
    use and caches the connection.  Not itself thread-safe beyond
    connection caching — share like a {!Client.t}. *)

val route : router -> name:string -> int

val client_for : router -> name:string -> Client.t
(** The cached connection to the shard owning [name] — the router's
    whole call surface:
    [Client.predict_typed (Shard.client_for r ~name) ~name ~states ~xs].
    A cached connection that {!Client.broken} reports is closed and
    redialed here, so after a lost stream or a shed the next call goes
    through a fresh dial.  Raises whatever the dial function raises. *)

val close_router : router -> unit
(** Close and drop every cached connection (the router stays usable —
    the next call redials). *)

(** {1 Multi-process cluster} *)

type cluster

val shard_addr : base_path:string -> int -> Unix.sockaddr
(** [ADDR_UNIX "<base_path>.shard-<i>"] — the naming convention
    {!start} binds and external clients dial. *)

val start :
  ?config:Server.config ->
  ?max_bytes:int ->
  shards:int ->
  base_path:string ->
  unit ->
  cluster
(** Fork one child per shard, each running [Server.start ~config] on
    [ADDR_UNIX "<base_path>.shard-<i>"] over its own registry with a
    [max_bytes] budget (default: {!Registry.create}'s 256 MiB).
    Children are forked before they own any threads (the server's
    threads are spawned fresh inside each child).  A child exits 0
    after a shutdown, or 1 after printing the exception that stopped
    its server.  Call {!wait_ready} before routing traffic. *)

val addrs : cluster -> Unix.sockaddr array

val wait_ready : ?timeout:float -> cluster -> unit
(** Block until every shard answers a ping.  Raises [Failure] naming
    the shard as soon as its child has exited (with the exit status: a
    child whose server failed to start prints the exception to stderr
    and exits 1), or past [timeout] (default 10 s).  Call {!stop}
    afterwards either way. *)

val connect : ?timeout:float -> cluster -> router
(** A router dialing this cluster's sockets ([timeout] per
    {!Client.connect}). *)

val stop : ?timeout:float -> cluster -> unit
(** Graceful shutdown request to every shard, then reap; a child still
    alive after [timeout] (default 5 s) is killed.  Idempotent;
    removes the socket files. *)
