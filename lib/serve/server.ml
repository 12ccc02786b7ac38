open Cbmf_robust

(* Dead peers are routine here (shed connections, crashed clients,
   chaos injection): every raw write must surface EPIPE as an
   exception, never as process-terminating SIGPIPE. *)
let () = try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ()

type config = {
  workers : int;
  timeout : float;
  backlog : int;
  queue_cap : int;
  deadline : float;
  drain_timeout : float;
  retry_after_ms : int;
}

let default_config =
  {
    workers = 4;
    timeout = 10.0;
    backlog = 16;
    queue_cap = 8;
    deadline = 0.0;
    drain_timeout = 1.0;
    retry_after_ms = 50;
  }

(* Chaos-harness fault sites (armed via CBMF_FAULT_SITES, see
   Cbmf_robust.Inject).  Each simulates one serve-tier failure mode:
   a connection dropped between accept and enqueue, a reply stalled
   in the kernel, a reply frame torn mid-write, and a worker dying
   mid-request (connection closed with no reply). *)
let accept_drop_site = "serve.accept_drop"

let slow_reply_site = "serve.slow_reply"

let torn_frame_site = "serve.torn_frame"

let worker_crash_site = "serve.worker_crash"

type t = {
  config : config;
  registry : Registry.t;
  stats : Stats.t;
  listen_fd : Unix.file_descr;
  bound : Unix.sockaddr;
  unix_path : string option;  (* socket file to unlink on stop *)
  pipe_rd : Unix.file_descr;
  pipe_wr : Unix.file_descr;
  lock : Mutex.t;
  not_empty : Condition.t;
  queue : (Unix.file_descr * float) Queue.t;  (* fd, accept timestamp *)
  inflight : (Unix.file_descr, unit) Hashtbl.t;  (* being served right now *)
  mutable stopping : bool;
  mutable joined : bool;
  mutable threads : Thread.t list;
}

let registry t = t.registry

let stats t = t.stats

let addr t = t.bound

(* --- Admission control ------------------------------------------------ *)

(* Queue full: the acceptor must never block, so the connection is
   refused on the spot — a typed [Overloaded] reply (bounded by the
   socket's SO_SNDTIMEO, already set) telling the client how deep the
   queue was and when to retry, then close. *)
let shed t fd ~depth =
  Stats.record_shed t.stats;
  (try
     Protocol.write_reply fd
       (Protocol.Overloaded
          { queue_depth = depth; retry_after_ms = t.config.retry_after_ms })
   with _ -> ());
  (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let try_enqueue t fd =
  Mutex.lock t.lock;
  if t.stopping then begin
    Mutex.unlock t.lock;
    try Unix.close fd with Unix.Unix_error _ -> ()
  end
  else begin
    let depth = Queue.length t.queue in
    if depth >= t.config.queue_cap then begin
      Mutex.unlock t.lock;
      shed t fd ~depth
    end
    else begin
      Queue.push (fd, Unix.gettimeofday ()) t.queue;
      Condition.signal t.not_empty;
      Mutex.unlock t.lock;
      Stats.set_queue_depth t.stats (depth + 1)
    end
  end

(* Pops a connection and registers it in-flight under the same lock
   acquisition, so at every instant an accepted connection is either
   queued or in-flight — the drain reaper can enumerate both without a
   window where a connection belongs to neither. *)
let dequeue t =
  Mutex.lock t.lock;
  while Queue.is_empty t.queue && not t.stopping do
    Condition.wait t.not_empty t.lock
  done;
  let conn =
    if Queue.is_empty t.queue then None
    else begin
      let fd, accepted = Queue.pop t.queue in
      Hashtbl.replace t.inflight fd ();
      Some (fd, accepted, Queue.length t.queue)
    end
  in
  Mutex.unlock t.lock;
  match conn with
  | None -> None
  | Some (fd, accepted, depth) ->
      Stats.set_queue_depth t.stats depth;
      Stats.record_queue_wait t.stats
        ~seconds:(Unix.gettimeofday () -. accepted);
      Some (fd, accepted)

(* --- Request handling ------------------------------------------------- *)

let op_of_request = function
  | Protocol.Load _ -> "load"
  | Protocol.Predict _ | Protocol.Predict_deadline _ -> "predict"
  | Protocol.Stats -> "stats"
  | Protocol.Shutdown -> "shutdown"
  | Protocol.Ping -> "ping"
  | Protocol.Reload _ -> "reload"

let batch_of_request = function
  | Protocol.Predict { states; _ } | Protocol.Predict_deadline { states; _ } ->
      Some (Array.length states)
  | _ -> None

let request_stop t =
  Mutex.lock t.lock;
  let first = not t.stopping in
  t.stopping <- true;
  Condition.broadcast t.not_empty;
  Mutex.unlock t.lock;
  if first then
    (* Wake the acceptor out of select. *)
    try ignore (Unix.write t.pipe_wr (Bytes.make 1 '!') 0 1)
    with Unix.Unix_error _ -> ()

(* Request handling is parameterized by a context so a pre-connected
   descriptor (e.g. one end of a socketpair) can be served without a
   listener — see [serve_fd]. *)
type ctx = {
  c_registry : Registry.t;
  c_stats : Stats.t;
  c_deadline : float;  (* per-request wall-clock budget, s; 0 = none *)
  on_shutdown : unit -> unit;
}

(* The absolute deadline for one request: the tighter of the server's
   configured budget and the client's [Predict_deadline] budget, both
   anchored at [base] (accept time for a connection's first request —
   queue wait counts against it — frame arrival after that). *)
let effective_deadline ctx ~base req =
  let server =
    if ctx.c_deadline > 0.0 then Some (base +. ctx.c_deadline) else None
  in
  let client =
    match req with
    | Protocol.Predict_deadline { deadline_ms; _ } ->
        Some (base +. (float_of_int deadline_ms /. 1000.0))
    | _ -> None
  in
  match (server, client) with
  | None, d | d, None -> d
  | Some a, Some b -> Some (Float.min a b)

let model_reply model =
  ( Model.n_active model,
    model.Model.n_states,
    Model.byte_size model )

let do_predict ctx ?deadline ~name ~states ~xs () =
  match Registry.find ctx.c_registry ~name with
  | None ->
      ( Protocol.Error
          {
            code = Protocol.Model_not_found;
            message = Printf.sprintf "no model %S" name;
          },
        true )
  | Some model -> (
      try
        (* Inline, on this worker's thread: one engine call per wire
           request. *)
        let t0 = Unix.gettimeofday () in
        let means, sds = Engine.predict_batch ?deadline model ~states ~xs in
        Stats.record_engine_call ctx.c_stats ~points:(Array.length states)
          ~seconds:(Unix.gettimeofday () -. t0);
        (Protocol.Predicted { means; sds }, true)
      with
      | Invalid_argument msg ->
          (Protocol.Error { code = Protocol.Bad_request; message = msg }, true)
      | Fault.Error (Fault.Early_stop { site; _ } as f)
        when String.equal site Engine.deadline_site ->
          Stats.record_deadline ctx.c_stats;
          ( Protocol.Error
              { code = Protocol.Deadline_exceeded; message = Fault.to_string f },
            true ))
  | exception Fault.Error (Fault.Bad_snapshot _ as f) ->
      ( Protocol.Error
          { code = Protocol.Bad_snapshot; message = Fault.to_string f },
        true )

let handle_request ctx ?deadline req =
  match req with
  | Protocol.Load { name; source } -> (
      try
        let model =
          match source with
          | Protocol.Path path ->
              Registry.add_path ctx.c_registry ~name path;
              Registry.get ctx.c_registry ~name
          | Protocol.Inline image ->
              let m = Snapshot.decode ~site:"serve.decode" image in
              Registry.put ctx.c_registry ~name m;
              m
        in
        let n_active, n_states, bytes = model_reply model in
        (Protocol.Loaded { n_active; n_states; bytes }, true)
      with Fault.Error (Fault.Bad_snapshot _ as f) ->
        ( Protocol.Error
            { code = Protocol.Bad_snapshot; message = Fault.to_string f },
          true ))
  | Protocol.Reload { name; source } -> (
      try
        let model, generation =
          match source with
          | Protocol.Path path -> Registry.reload_path ctx.c_registry ~name path
          | Protocol.Inline image ->
              (* Decode before touching the slot: a corrupt inline image
                 raises here and the old model keeps serving. *)
              let m = Snapshot.decode ~site:"serve.decode" image in
              (m, Registry.reload ctx.c_registry ~name m)
        in
        let n_active, n_states, bytes = model_reply model in
        (Protocol.Reloaded { generation; n_active; n_states; bytes }, true)
      with Fault.Error (Fault.Bad_snapshot _ as f) ->
        ( Protocol.Error
            { code = Protocol.Bad_snapshot; message = Fault.to_string f },
          true ))
  | Protocol.Predict { name; states; xs } ->
      do_predict ctx ?deadline ~name ~states ~xs ()
  | Protocol.Predict_deadline { name; states; xs; deadline_ms = _ } ->
      do_predict ctx ?deadline ~name ~states ~xs ()
  | Protocol.Ping ->
      ( Protocol.Pong { generation = Registry.total_generation ctx.c_registry },
        true )
  | Protocol.Stats ->
      let json =
        Stats.to_json
          ~extra:
            [ ("registry", Stats.registry_json (Registry.stats ctx.c_registry))
            ]
          ctx.c_stats
      in
      (Protocol.Stats_json json, true)
  | Protocol.Shutdown ->
      ctx.on_shutdown ();
      (Protocol.Shutting_down, false)

let is_timeout = function
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> true
  | _ -> false

(* Reply write with the two reply-path fault sites.  A torn frame
   writes only a prefix of the framed bytes then raises [Closed] so
   the caller hangs up — exactly what a worker dying mid-write looks
   like from the client side. *)
let write_reply fd reply =
  if Inject.fire ~site:slow_reply_site then Thread.delay 0.02;
  if Inject.fire ~site:torn_frame_site then begin
    let buf = Protocol.frame (Protocol.encode_reply reply) in
    let half = max 1 (Bytes.length buf / 2) in
    (try ignore (Unix.write fd buf 0 half) with Unix.Unix_error _ -> ());
    raise Protocol.Closed
  end;
  (* Zero-copy hot path: one framed buffer, no body string. *)
  Protocol.write_reply fd reply

(* Serves one connection's requests until hangup / timeout / framing
   loss.  Does NOT close the descriptor — ownership stays with the
   caller (workers must unregister the fd from the in-flight table
   before closing it, so close ordering is theirs). *)
let serve_loop ctx ?accepted fd =
  let first_base = ref accepted in
  let continue_ = ref true in
  while !continue_ do
    match Protocol.read_frame fd with
    | exception Protocol.Closed -> continue_ := false
    | exception Codec.Corrupt msg ->
        (* Torn frame or hostile length prefix: the stream cannot be
           resynchronized.  Best-effort typed error, then hang up. *)
        Stats.record ctx.c_stats ~op:"bad-frame" ~ok:false ~seconds:0.0;
        (try
           write_reply fd
             (Protocol.Error { code = Protocol.Bad_frame; message = msg })
         with _ -> ());
        continue_ := false
    | exception e when is_timeout e -> continue_ := false
    | exception Unix.Unix_error _ -> continue_ := false
    | body -> (
        let t0 = Unix.gettimeofday () in
        let base =
          match !first_base with
          | Some a ->
              first_base := None;
              a
          | None -> t0
        in
        match Protocol.decode_request body with
        | exception Codec.Corrupt msg ->
            (* The frame was well delimited, so the stream is still in
               sync — reply and keep the connection. *)
            Stats.record ctx.c_stats ~op:"bad-frame" ~ok:false
              ~seconds:(Unix.gettimeofday () -. t0);
            (try
               write_reply fd
                 (Protocol.Error { code = Protocol.Bad_frame; message = msg })
             with _ -> continue_ := false)
        | req ->
            if Inject.fire ~site:worker_crash_site then begin
              (* Simulated worker death mid-request: no reply, the
                 connection just goes away.  The client sees a clean
                 close and must treat it as retryable. *)
              Stats.record ctx.c_stats ~op:"crash" ~ok:false
                ~seconds:(Unix.gettimeofday () -. t0);
              continue_ := false
            end
            else begin
              let op = op_of_request req in
              let batch = batch_of_request req in
              let deadline = effective_deadline ctx ~base req in
              let reply, keep =
                try handle_request ctx ?deadline req
                with e ->
                  ( Protocol.Error
                      {
                        code = Protocol.Internal;
                        message = Printexc.to_string e;
                      },
                    true )
              in
              let ok =
                match reply with Protocol.Error _ -> false | _ -> true
              in
              Stats.record ?batch ctx.c_stats ~op ~ok
                ~seconds:(Unix.gettimeofday () -. t0);
              (try write_reply fd reply with _ -> continue_ := false);
              if not keep then continue_ := false
            end)
  done

let close_conn fd =
  (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let serve_fd ?stats ?(deadline = 0.0) ~registry fd =
  let stats = match stats with Some s -> s | None -> Stats.create () in
  serve_loop
    {
      c_registry = registry;
      c_stats = stats;
      c_deadline = deadline;
      on_shutdown = (fun () -> ());
    }
    fd;
  close_conn fd

let worker_loop t =
  let ctx =
    {
      c_registry = t.registry;
      c_stats = t.stats;
      c_deadline = t.config.deadline;
      on_shutdown = (fun () -> request_stop t);
    }
  in
  let rec loop () =
    match dequeue t with
    | None -> ()
    | Some (fd, accepted) ->
        serve_loop ctx ~accepted fd;
        (* Unregister before closing: the drain reaper only ever
           shuts down descriptors still present in the table, so a
           closed (possibly since reused) fd can never be hit. *)
        Mutex.lock t.lock;
        Hashtbl.remove t.inflight fd;
        Mutex.unlock t.lock;
        close_conn fd;
        loop ()
  in
  loop ()

(* --- Graceful drain --------------------------------------------------- *)

(* Past the drain window: queued connections (never picked up — the
   workers are wedged or gone) are closed outright; in-flight ones are
   shut down so their worker's blocking read fails, but the close is
   left to the owning worker.  Everything happens under the lock, so a
   worker that already unregistered its fd can never have it touched
   here. *)
let reap t =
  Mutex.lock t.lock;
  Queue.iter (fun (fd, _) -> close_conn fd) t.queue;
  Queue.clear t.queue;
  Hashtbl.iter
    (fun fd () ->
      try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    t.inflight;
  Mutex.unlock t.lock;
  Stats.set_queue_depth t.stats 0

(* After the stop signal the acceptor stops accepting but stays alive
   as the drain supervisor: queued and in-flight requests get up to
   [drain_timeout] to finish normally, then [reap] cuts them off. *)
let drain t =
  let cutoff = Unix.gettimeofday () +. t.config.drain_timeout in
  let rec loop () =
    let idle =
      Mutex.lock t.lock;
      let i = Queue.is_empty t.queue && Hashtbl.length t.inflight = 0 in
      Mutex.unlock t.lock;
      i
    in
    if idle then ()
    else if Unix.gettimeofday () >= cutoff then reap t
    else begin
      Thread.delay 0.01;
      loop ()
    end
  in
  loop ()

let acceptor_loop t =
  let continue_ = ref true in
  while !continue_ do
    (match Unix.select [ t.listen_fd; t.pipe_rd ] [] [] (-1.0) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()  (* retry *)
    | ready, _, _ ->
        if List.mem t.pipe_rd ready then continue_ := false
        else if List.mem t.listen_fd ready then begin
          match Unix.accept ~cloexec:true t.listen_fd with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()  (* retry *)
          | exception Unix.Unix_error _ -> ()
          | fd, _ ->
              (try
                 Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.config.timeout;
                 Unix.setsockopt_float fd Unix.SO_SNDTIMEO t.config.timeout
               with Unix.Unix_error _ -> ());
              if Inject.fire ~site:accept_drop_site then
                (* Simulated drop between accept and enqueue. *)
                (try Unix.close fd with Unix.Unix_error _ -> ())
              else try_enqueue t fd
        end);
    Mutex.lock t.lock;
    if t.stopping then continue_ := false;
    Mutex.unlock t.lock
  done;
  drain t

let start ?(config = default_config) ?registry ?stats sockaddr =
  let registry =
    match registry with Some r -> r | None -> Registry.create ()
  in
  let stats = match stats with Some s -> s | None -> Stats.create () in
  let domain =
    match sockaddr with
    | Unix.ADDR_UNIX _ -> Unix.PF_UNIX
    | Unix.ADDR_INET _ -> Unix.PF_INET
  in
  let unix_path =
    match sockaddr with
    | Unix.ADDR_UNIX path ->
        (try Unix.unlink path with Unix.Unix_error _ -> ());
        Some path
    | _ -> None
  in
  let listen_fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
  (try
     if domain = Unix.PF_INET then
       Unix.setsockopt listen_fd Unix.SO_REUSEADDR true
   with Unix.Unix_error _ -> ());
  (try
     Unix.bind listen_fd sockaddr;
     Unix.listen listen_fd config.backlog
   with e ->
     Unix.close listen_fd;
     raise e);
  let bound = Unix.getsockname listen_fd in
  let pipe_rd, pipe_wr = Unix.pipe ~cloexec:true () in
  let t =
    {
      config;
      registry;
      stats;
      listen_fd;
      bound;
      unix_path;
      pipe_rd;
      pipe_wr;
      lock = Mutex.create ();
      not_empty = Condition.create ();
      queue = Queue.create ();
      inflight = Hashtbl.create 16;
      stopping = false;
      joined = false;
      threads = [];
    }
  in
  let workers =
    List.init (max 1 config.workers) (fun _ -> Thread.create worker_loop t)
  in
  let acceptor = Thread.create acceptor_loop t in
  t.threads <- acceptor :: workers;
  t

let wait t =
  let to_join =
    Mutex.lock t.lock;
    let ts = if t.joined then [] else t.threads in
    t.joined <- true;
    Mutex.unlock t.lock;
    ts
  in
  List.iter Thread.join to_join;
  if to_join <> [] then begin
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    (try Unix.close t.pipe_rd with Unix.Unix_error _ -> ());
    (try Unix.close t.pipe_wr with Unix.Unix_error _ -> ());
    (match t.unix_path with
    | Some path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | None -> ());
    (* Belt and braces: the drain already emptied the queue (workers
       picked everything up, or [reap] closed the rest). *)
    Mutex.lock t.lock;
    Queue.iter (fun (fd, _) -> close_conn fd) t.queue;
    Queue.clear t.queue;
    Mutex.unlock t.lock
  end

let stop t =
  request_stop t;
  wait t
