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

    Split by what happens to the connection: [Connection_lost] and
    [Overloaded] end it and leave the client {!broken}, so the next
    request needs a fresh dial ({!Shard.client_for} redials on its
    next call); [Server_error] and [Unexpected] are answers on a
    connection that stays up.  Nothing retries on its own, and a
    server that died stays down. *)

type failure =
  | Connection_lost of string
      (** The stream is gone: hangup, torn reply frame, socket timeout
          or refused connect. *)
  | Overloaded of { queue_depth : int; retry_after_ms : int }
      (** Admission control shed the connection; a fresh connection
          may try again after the hint. *)
  | Server_error of { code : Protocol.error_code; message : string }
      (** A typed error reply — the server is healthy and said no. *)
  | Unexpected of string
      (** Protocol violation: the reply was of the wrong kind. *)

val failure_to_string : failure -> string

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
    into one.  (The server handles each connection sequentially, one
    engine call per request, so pipelining saves round trips, not
    compute.)  Replies arrive in request order;
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
