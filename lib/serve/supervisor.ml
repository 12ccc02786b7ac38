type replica = {
  index : int;
  mutable server : Server.t option;
  mutable r_addr : Unix.sockaddr option;
  mutable backoff : float;  (* delay before the next restart attempt *)
  mutable next_attempt : float;  (* earliest wall-clock restart time *)
}

type t = {
  make : int -> Server.t;
  health_interval : float;
  base_backoff : float;
  max_backoff : float;
  ping_timeout : float;
  lock : Mutex.t;
  replicas : replica array;
  mutable restarts : int;
  mutable stopping : bool;
  mutable thread : Thread.t option;
}

(* Replace a replica's server.  Stopping the old one first is safe
   even when it already died (Server.stop is idempotent) and releases
   its listening socket so a fixed address can be rebound.  [make]
   failing (e.g. the address is still busy) just reschedules the
   attempt with a grown backoff. *)
let restart_locked t r =
  (match r.server with
  | Some s -> ( try Server.stop s with _ -> ())
  | None -> ());
  r.server <- None;
  r.r_addr <- None;
  (match t.make r.index with
  | s ->
      r.server <- Some s;
      r.r_addr <- Some (Server.addr s);
      t.restarts <- t.restarts + 1
  | exception _ -> ());
  r.next_attempt <- Unix.gettimeofday () +. r.backoff;
  r.backoff <- Float.min t.max_backoff (r.backoff *. 2.0)

let check_replica t r =
  let addr = Mutex.protect t.lock (fun () -> r.r_addr) in
  let alive =
    match addr with
    | Some a ->
        Result.is_ok
          (Client.with_failover ~attempts:1 ~timeout:t.ping_timeout [ a ]
             Client.ping)
    | None -> false
  in
  Mutex.protect t.lock (fun () ->
      if t.stopping then ()
      else if alive then r.backoff <- t.base_backoff
      else if Unix.gettimeofday () >= r.next_attempt then restart_locked t r)

let supervise t =
  let rec loop () =
    let stopping = Mutex.protect t.lock (fun () -> t.stopping) in
    if not stopping then begin
      Array.iter (check_replica t) t.replicas;
      Thread.delay t.health_interval;
      loop ()
    end
  in
  loop ()

let start ?(health_interval = 0.1) ?(base_backoff = 0.05) ?(max_backoff = 1.0)
    ?(ping_timeout = 1.0) ~n make =
  if n < 1 then invalid_arg "Supervisor.start: need at least one replica";
  let t =
    {
      make;
      health_interval;
      base_backoff;
      max_backoff;
      ping_timeout;
      lock = Mutex.create ();
      replicas =
        Array.init n (fun index ->
            {
              index;
              server = None;
              r_addr = None;
              backoff = base_backoff;
              next_attempt = 0.0;
            });
      restarts = 0;
      stopping = false;
      thread = None;
    }
  in
  (* Bring every replica up before returning — the initial spawns are
     not counted as restarts. *)
  Array.iter
    (fun r ->
      match make r.index with
      | s ->
          r.server <- Some s;
          r.r_addr <- Some (Server.addr s)
      | exception e ->
          Array.iter
            (fun r ->
              match r.server with
              | Some s -> ( try Server.stop s with _ -> ())
              | None -> ())
            t.replicas;
          raise e)
    t.replicas;
  t.thread <- Some (Thread.create supervise t);
  t

let addrs t =
  Mutex.protect t.lock (fun () ->
      Array.to_list t.replicas
      |> List.filter_map (fun r -> r.r_addr))

let restarts t = Mutex.protect t.lock (fun () -> t.restarts)

let stop t =
  let th =
    Mutex.protect t.lock (fun () ->
        t.stopping <- true;
        let th = t.thread in
        t.thread <- None;
        th)
  in
  (match th with Some th -> Thread.join th | None -> ());
  Array.iter
    (fun r ->
      let s =
        Mutex.protect t.lock (fun () ->
            let s = r.server in
            r.server <- None;
            r.r_addr <- None;
            s)
      in
      match s with Some s -> ( try Server.stop s with _ -> ()) | None -> ())
    t.replicas
