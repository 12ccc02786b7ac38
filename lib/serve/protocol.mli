(** The length-prefixed binary wire protocol.

    Every frame on the wire is a u32 little-endian byte length followed
    by that many body bytes; bodies are {!Codec} encodings of one
    {!request} or one {!reply}.  Frames above 64 MiB are
    rejected before allocation — a hostile length prefix cannot make
    the server allocate gigabytes.

    Decoding never trusts the peer: any malformed body raises
    {!Codec.Corrupt}, which the server answers with a typed
    [`Bad_frame] {!reply} error instead of dying.

    {b Versioning is strictly additive.}  The original encodings (ops
    1-4, reply tags 1-4/255, error codes 1-6) are frozen byte-for-byte;
    the overload/deadline/reload/health extensions only ever claim
    fresh numbers ([Ping]=5, [Reload]=6, [Predict_deadline]=7; reply
    tags [Pong]=5, [Reloaded]=6, [Overloaded]=7; error code
    [Deadline_exceeded]=7).  A pre-extension client keeps speaking the
    old bytes and keeps receiving byte-identical replies — the wire
    back-compat test in [test_serve.ml] pins this. *)

open Cbmf_linalg

(** {1 Messages} *)

type source =
  | Path of string  (** a snapshot file the server can reach *)
  | Inline of string  (** a full snapshot image shipped in the request *)

type request =
  | Load of { name : string; source : source }
  | Predict of { name : string; states : int array; xs : Mat.t }
  | Stats
  | Shutdown
  | Ping  (** health probe; answered with {!reply.Pong} even under load *)
  | Reload of { name : string; source : source }
      (** atomic generation-swap of an existing (or new) slot:
          in-flight predicts finish on the old model, the next request
          sees the new one; a bad image rolls back (slot untouched) *)
  | Predict_deadline of {
      name : string;
      states : int array;
      xs : Mat.t;
      deadline_ms : int;
          (** client-side wall budget for this request, milliseconds
              from server receipt; the server answers
              [Deadline_exceeded] rather than replying late *)
    }

type error_code =
  | Bad_frame  (** the body did not decode *)
  | Unknown_op  (** valid frame, unknown opcode (a newer client?) *)
  | Bad_snapshot  (** a {!Cbmf_robust.Fault.Bad_snapshot} during load *)
  | Model_not_found
  | Bad_request  (** shape/state errors from the engine *)
  | Internal  (** anything else; the server stays up *)
  | Deadline_exceeded
      (** the request's wall budget (client [deadline_ms] or the
          server's configured per-request deadline) ran out *)

type reply =
  | Loaded of { n_active : int; n_states : int; bytes : int }
  | Predicted of { means : float array; sds : float array }
  | Stats_json of string
  | Shutting_down
  | Pong of { generation : int }
      (** [generation] is the registry's global reload counter, so a
          client can observe a reload land without a model request *)
  | Reloaded of { generation : int; n_active : int; n_states : int; bytes : int }
  | Overloaded of { queue_depth : int; retry_after_ms : int }
      (** admission control shed this connection before any request
          was read; a fresh connection may try again after
          [retry_after_ms] *)
  | Error of { code : error_code; message : string }

val error_code_name : error_code -> string

(** {1 Encoding} *)

val encode_request : request -> string

val decode_request : string -> request
(** Raises {!Codec.Corrupt} on malformed bodies. *)

val encode_reply : reply -> string

val decode_reply : string -> reply
(** Raises {!Codec.Corrupt} on malformed bodies. *)

(** {1 Framing} *)

exception Closed
(** The peer closed the connection at a frame boundary. *)

val frame : string -> bytes
(** The on-wire bytes of one frame (length prefix + body).  Raises
    [Invalid_argument] on bodies above 64 MiB.  Exposed so
    the chaos harness can write {e partial} frames (torn-frame
    injection); normal senders use {!write_frame}. *)

val write_frame : Unix.file_descr -> string -> unit
(** Length prefix + body, handling short writes.  Raises
    [Invalid_argument] on bodies above 64 MiB. *)

val write_request : Unix.file_descr -> request -> unit
(** Encode and send one framed request with zero copies: the message
    is emitted into a single framed buffer (prefix patched in place)
    and written directly.  Byte-identical on the wire to
    [write_frame fd (encode_request req)]. *)

val write_reply : Unix.file_descr -> reply -> unit
(** Same, for replies — the server's reply hot path. *)

val read_frame : Unix.file_descr -> string
(** One whole frame.  Raises {!Closed} on EOF at a boundary,
    {!Codec.Corrupt} on an oversized length prefix or EOF mid-frame,
    and lets [Unix_error (EAGAIN, _, _)] (a socket receive timeout)
    propagate. *)
