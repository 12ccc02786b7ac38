(** Blocking client for the serving protocol — used by the CLI, the
    tests and the smoke harness.  One connection, requests answered in
    order.

    Every request goes through one typed round-trip, {!call}; the
    per-operation helpers below only narrow its reply.  No call raises
    on transport problems: everything that ends a round-trip folds into
    a {!failure}. *)

open Cbmf_linalg

type t

val connect : ?timeout:float -> Unix.sockaddr -> t
(** [timeout] (default 10 s) bounds each send/receive.  Raises
    [Unix.Unix_error] when the connect itself fails. *)

val of_fd : Unix.file_descr -> t
(** Wrap an already-connected descriptor (e.g. one end of a
    [socketpair] in tests).  [close] closes it. *)

val close : t -> unit
(** Idempotent.  A closed client is {!broken}. *)

(** {1 Typed failures}

    Split by what a caller may do about them: {!retryable} failures
    ([Connection_lost], [Overloaded]) are safe to retry on another
    replica for idempotent requests; the rest are answers, not
    outages. *)

type failure =
  | Connection_lost of string
      (** The stream is gone: hangup, torn reply frame, socket timeout
          or refused connect.  Retryable against another replica. *)
  | Overloaded of { queue_depth : int; retry_after_ms : int }
      (** Admission control shed the connection; retry after the
          hint. *)
  | Server_error of { code : Protocol.error_code; message : string }
      (** A typed error reply — the server is healthy and said no. *)
  | Unexpected of string  (** Protocol violation; not retryable. *)

val failure_to_string : failure -> string

val retryable : failure -> bool
(** [true] exactly for [Connection_lost] and [Overloaded]. *)

val broken : t -> bool
(** [true] once the client lost its stream, was shed or was closed.
    A broken client stays broken: every later call returns the same
    failure without touching the socket, so a late reply to a
    timed-out request is never read as the answer to the next one.
    Dial a new client to go on. *)

(** {1 Requests} *)

val call : t -> Protocol.request -> (Protocol.reply, failure) result
(** One round-trip.  [Overloaded] and [Error] replies land in
    [Error]; any other reply is [Ok]. *)

val send_raw : t -> string -> Protocol.reply
(** Frame an arbitrary body and read one reply — the malformed-frame
    test hook.  Raises on transport problems. *)

val predict_typed :
  ?deadline_ms:int ->
  t ->
  name:string ->
  states:int array ->
  xs:Mat.t ->
  (float array * float array, failure) result
(** [deadline_ms] is a client-side wall-clock budget in milliseconds;
    the server answers [Deadline_exceeded] (a [Server_error]) when it
    cannot make it. *)

val predict_many :
  t ->
  name:string ->
  (int array * Mat.t) list ->
  (float array * float array, failure) result list
(** Pipelined predicts on this one connection: every request frame is
    sent before any reply is read, collapsing N round-trip latencies
    into one.  (The server handles each connection sequentially, so
    pipelining does not by itself fill the dynamic batcher's window —
    that takes concurrent connections — but it keeps this connection's
    requests arriving back-to-back.)  Replies arrive in request order;
    the result list aligns 1:1 with the input.  A typed server error
    fails only its own slot; a transport failure or a shed breaks the
    client, failing its slot and every later one the same way. *)

val ping : t -> (int, failure) result
(** Health probe; [Ok generation] carries the registry's global
    reload generation. *)

val reload_path :
  t -> name:string -> path:string -> (int * int * int * int, failure) result
(** Atomically swap the named model to the snapshot at [path];
    [Ok (generation, n_active, n_states, bytes)].  A corrupt snapshot
    is a [Server_error] with code [Bad_snapshot] and the old model
    keeps serving. *)

val reload_inline :
  t -> name:string -> image:string -> (int * int * int * int, failure) result
(** Same, shipping the snapshot image in the request body. *)

val load_path : t -> name:string -> path:string -> (int * int * int, string) result
(** Ask the server to load a snapshot file it can reach; [Ok (n_active,
    n_states, bytes)] on success, {!failure_to_string} of the failure
    otherwise. *)

val load_inline : t -> name:string -> image:string -> (int * int * int, string) result
(** Ship a snapshot image in the request body. *)

val stats : t -> (string, string) result
(** The server's stats-JSON blob. *)

val shutdown : t -> unit
(** Fire the shutdown request; tolerates the server hanging up before
    the reply lands. *)

val with_failover :
  ?attempts:int ->
  ?base_backoff:float ->
  ?max_backoff:float ->
  ?seed:int64 ->
  ?timeout:float ->
  Unix.sockaddr list ->
  (t -> ('a, failure) result) ->
  ('a, failure) result
(** [with_failover addrs f] connects to replicas round-robin and runs
    [f] (which should issue {e idempotent} requests — predicts, pings)
    until it succeeds, a non-retryable failure is returned, or
    [attempts] (default 6) tries are exhausted.  Between retries it
    sleeps a capped exponential backoff ([base_backoff] 10 ms doubling
    up to [max_backoff] 250 ms) with deterministic jitter in
    [0.5, 1.5)× derived from [(seed, attempt)] via
    {!Cbmf_prob.Rng.derive} — replays sleep the same schedule.  An
    [Overloaded] hint floors the next delay at its [retry_after_ms].
    Each attempt uses a fresh connection, closed before returning; a
    refused connect is a [Connection_lost].  With [~attempts:1] this
    is the connect-call-close liveness probe.  Raises
    [Invalid_argument] on an empty replica list. *)
