type failure =
  | Connection_lost of string
  | Overloaded of { queue_depth : int; retry_after_ms : int }
  | Server_error of { code : Protocol.error_code; message : string }
  | Unexpected of string

(* [lost] is sticky: once the stream is gone (or the server shed the
   connection) every later call answers the same failure without
   touching the socket.  A request that timed out may still get its
   reply later; reading on would hand that stale reply to the next
   request. *)
type t = {
  fd : Unix.file_descr;
  mutable closed : bool;
  mutable lost : failure option;
}

let of_fd fd = { fd; closed = false; lost = None }

let connect ?(timeout = 10.0) sockaddr =
  let domain =
    match sockaddr with
    | Unix.ADDR_UNIX _ -> Unix.PF_UNIX
    | Unix.ADDR_INET _ -> Unix.PF_INET
  in
  let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
  (try Unix.connect fd sockaddr
   with e ->
     Unix.close fd;
     raise e);
  (try
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout;
     Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout
   with Unix.Unix_error _ -> ());
  of_fd fd

(* A closed client is lost too, so no call can reach a descriptor
   number the process has since reused. *)
let close t =
  if t.lost = None then t.lost <- Some (Connection_lost "client closed");
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let broken t = t.lost <> None

let failure_to_string = function
  | Connection_lost msg -> Printf.sprintf "connection lost: %s" msg
  | Overloaded { queue_depth; retry_after_ms } ->
      Printf.sprintf "overloaded: queue depth %d, retry after %d ms"
        queue_depth retry_after_ms
  | Server_error { code; message } ->
      Printf.sprintf "%s: %s" (Protocol.error_code_name code) message
  | Unexpected msg -> Printf.sprintf "unexpected reply: %s" msg

(* The one place a transport exception becomes a typed failure: a
   hangup, a torn reply frame, a socket timeout and a refused connect
   all mean the stream is gone, and a caller can't use the raw
   exception to decide anything the constructor doesn't already say. *)
let connection_lost = function
  | Protocol.Closed -> Connection_lost "server closed the connection"
  | End_of_file -> Connection_lost "unexpected end of stream"
  | Codec.Corrupt msg -> Connection_lost (Printf.sprintf "torn reply: %s" msg)
  | Unix.Unix_error (e, fn, _) ->
      Connection_lost (Printf.sprintf "%s: %s" fn (Unix.error_message e))
  | e -> raise e

let lose t f =
  t.lost <- Some f;
  Error f

let send t req =
  match t.lost with
  | Some f -> Error f
  | None -> (
      match Protocol.write_request t.fd req with
      | () -> Ok ()
      | exception
          (Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) as e) -> (
          (* A shed can land before the request goes out: the server
             wrote [Overloaded] and closed without reading, so the
             write fails while the reply, and its retry hint, still
             sits in our receive buffer. *)
          match Protocol.decode_reply (Protocol.read_frame t.fd) with
          | Protocol.Overloaded { queue_depth; retry_after_ms } ->
              lose t (Overloaded { queue_depth; retry_after_ms })
          | _ | (exception _) -> lose t (connection_lost e))
      | exception e -> lose t (connection_lost e))

let receive t =
  match t.lost with
  | Some f -> Error f
  | None -> (
      match Protocol.decode_reply (Protocol.read_frame t.fd) with
      | Protocol.Overloaded { queue_depth; retry_after_ms } ->
          (* The server closes a shed connection right after this. *)
          lose t (Overloaded { queue_depth; retry_after_ms })
      | Protocol.Error { code; message } -> Error (Server_error { code; message })
      | reply -> Ok reply
      | exception e -> lose t (connection_lost e))

let call t req = Result.bind (send t req) (fun () -> receive t)

let send_raw t body =
  Protocol.write_frame t.fd body;
  Protocol.decode_reply (Protocol.read_frame t.fd)

(* [call]'s result narrowed to the reply kind [op] must answer with. *)
let expect op pick r =
  Result.bind r (fun reply ->
      match pick reply with
      | Some v -> Ok v
      | None ->
          Error
            (Unexpected (Printf.sprintf "%s answered with a non-%s reply" op op)))

let predicted = function
  | Protocol.Predicted { means; sds } -> Some (means, sds)
  | _ -> None

let predict_typed ?deadline_ms t ~name ~states ~xs =
  let req =
    match deadline_ms with
    | None -> Protocol.Predict { name; states; xs }
    | Some deadline_ms ->
        Protocol.Predict_deadline { name; states; xs; deadline_ms }
  in
  expect "predict" predicted (call t req)

(* Pipelined predicts: every frame goes out before any reply is read,
   collapsing N round-trip latencies into one.  Replies come back in
   request order.  A transport failure loses the client, so the
   remaining sends are skipped and every remaining slot gets the same
   failure; a typed server error only fails its own slot.  SO_SNDTIMEO
   bounds a wedged pipe (a server that stopped reading while both
   socket buffers are full). *)
let predict_many t ~name reqs =
  List.iter
    (fun (states, xs) ->
      ignore (send t (Protocol.Predict { name; states; xs })))
    reqs;
  List.map (fun _ -> expect "predict" predicted (receive t)) reqs

let ping t =
  expect "ping"
    (function Protocol.Pong { generation } -> Some generation | _ -> None)
    (call t Protocol.Ping)

let reload t ~name source =
  expect "reload"
    (function
      | Protocol.Reloaded { generation; n_active; n_states; bytes } ->
          Some (generation, n_active, n_states, bytes)
      | _ -> None)
    (call t (Protocol.Reload { name; source }))

let reload_path t ~name ~path = reload t ~name (Protocol.Path path)

let reload_inline t ~name ~image = reload t ~name (Protocol.Inline image)

let load t ~name source =
  expect "load"
    (function
      | Protocol.Loaded { n_active; n_states; bytes } ->
          Some (n_active, n_states, bytes)
      | _ -> None)
    (call t (Protocol.Load { name; source }))
  |> Result.map_error failure_to_string

let load_path t ~name ~path = load t ~name (Protocol.Path path)

let load_inline t ~name ~image = load t ~name (Protocol.Inline image)

let stats t =
  expect "stats"
    (function Protocol.Stats_json json -> Some json | _ -> None)
    (call t Protocol.Stats)
  |> Result.map_error failure_to_string

(* The server may hang up before its reply lands; it is going down
   either way. *)
let shutdown t = ignore (call t Protocol.Shutdown)
