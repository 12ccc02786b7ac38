(* Consistent-hash sharding of the model namespace over N servers.
   --------------------------------------------------------------

   Placement is a pure function of the model NAME — never the model
   value or its reload generation — so a hot reload (which swaps the
   slot's model and bumps generations) keeps routing to the same
   shard, and every client computes the same placement from nothing
   but (shard count, vnode count, name).

   The ring holds [vnodes] virtual points per shard (FNV-64 of
   "shard-<i>/<v>", passed through a 64-bit finalizer); a name lands
   on the first point clockwise from its own hash.  The finalizer
   matters: FNV-1a diffuses a changed byte {e upward} only, so short
   strings sharing a prefix ("shard-0/17", "model-42") come out with
   correlated top bits, and ring order is decided by top bits —
   un-mixed, whole shards can end up owning no arc at all.  The fmix64
   step (murmur3's finalizer) gives full avalanche without touching
   [Codec.fnv64] itself, whose raw value is part of the snapshot
   checksum format.

   Virtual points smooth the load split and keep
   movement minimal when the shard count changes: going N → N+1 moves
   only the names whose successor point belongs to the new shard,
   ~1/(N+1) of the namespace, instead of rehashing everything the way
   [hash mod N] would. *)

type ring = {
  points : int64 array;  (* vnode hashes, sorted unsigned ascending *)
  owners : int array;  (* shard owning points.(i) *)
  shards : int;
}

(* murmur3 fmix64: full-avalanche finalizer over the raw FNV value. *)
let mix h =
  let open Int64 in
  let h = logxor h (shift_right_logical h 33) in
  let h = mul h 0xFF51AFD7ED558CCDL in
  let h = logxor h (shift_right_logical h 33) in
  let h = mul h 0xC4CEB9FE1A85EC53L in
  logxor h (shift_right_logical h 33)

let hash s = mix (Codec.fnv64 s)

let ring ?(vnodes = 64) shards =
  if shards < 1 then invalid_arg "Shard.ring: shard count must be >= 1";
  if vnodes < 1 then invalid_arg "Shard.ring: vnodes must be >= 1";
  let pts =
    Array.init (shards * vnodes) (fun i ->
        let shard = i / vnodes and v = i mod vnodes in
        (hash (Printf.sprintf "shard-%d/%d" shard v), shard))
  in
  Array.sort (fun (a, _) (b, _) -> Int64.unsigned_compare a b) pts;
  {
    points = Array.map fst pts;
    owners = Array.map snd pts;
    shards;
  }

let shards r = r.shards

(* First vnode clockwise from the name's mixed hash: binary search for
   the smallest point >= h (unsigned), wrapping to point 0. *)
let place r name =
  let h = hash name in
  let n = Array.length r.points in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Int64.unsigned_compare r.points.(mid) h < 0 then lo := mid + 1
    else hi := mid
  done;
  r.owners.(if !lo = n then 0 else !lo)

(* --- Routed client ----------------------------------------------------

   One logical client over N per-shard connections, opened lazily and
   cached.  [client_for] is the whole call surface: it hands out the
   connection to the shard owning a name, and callers issue the
   request with the ordinary {!Client} functions.  A cached connection
   that {!Client.broken} reports (hangup, timeout, shed, close) is
   dropped and redialed on the next lookup, so one dead stream costs
   exactly one failed call. *)

type router = {
  r_ring : ring;
  connect : int -> Client.t;  (* dial shard i *)
  conns : Client.t option array;
  r_lock : Mutex.t;
}

let router ?vnodes connect ~shards =
  let r_ring = ring ?vnodes shards in
  { r_ring; connect; conns = Array.make shards None; r_lock = Mutex.create () }

let route t ~name = place t.r_ring name

let client_for t ~name =
  let i = route t ~name in
  Mutex.protect t.r_lock (fun () ->
      match t.conns.(i) with
      | Some c when not (Client.broken c) -> c
      | stale ->
          Option.iter Client.close stale;
          t.conns.(i) <- None;
          let c = t.connect i in
          t.conns.(i) <- Some c;
          c)

let close_router t =
  Mutex.protect t.r_lock (fun () ->
      Array.iteri
        (fun i c ->
          Option.iter Client.close c;
          t.conns.(i) <- None)
        t.conns)

(* --- Multi-process cluster --------------------------------------------

   One forked child per shard, each running a full [Server.start] on
   its own Unix-domain socket "<base>.shard-<i>".  The fork happens
   before the child has any threads (the server's acceptor and workers
   are spawned fresh inside it), which is the only safe shape —
   [fork] clones just the calling thread, so a child forked from a
   threaded parent must not rely on any other thread's locks. *)

type cluster = {
  c_addrs : Unix.sockaddr array;
  c_pids : int array;
  c_paths : string array;
  vnodes : int option;
  mutable stopped : bool;
}

let shard_path ~base_path i = Printf.sprintf "%s.shard-%d" base_path i

let shard_addr ~base_path i = Unix.ADDR_UNIX (shard_path ~base_path i)

let start ?(config = Server.default_config) ?vnodes ~shards ~base_path () =
  if shards < 1 then invalid_arg "Shard.start: shard count must be >= 1";
  let paths = Array.init shards (shard_path ~base_path) in
  let addrs = Array.map (fun p -> Unix.ADDR_UNIX p) paths in
  let pids =
    Array.map
      (fun addr ->
        match Unix.fork () with
        | 0 ->
            (* Child: serve this shard until a Shutdown request lands.
               [_exit] skips at_exit / buffer flushing inherited from
               the parent — those belong to the parent's state. *)
            (try
               let srv = Server.start ~config addr in
               Server.wait srv
             with _ -> ());
            Unix._exit 0
        | pid -> pid)
      addrs
  in
  { c_addrs = addrs; c_pids = pids; c_paths = paths; vnodes; stopped = false }

let addrs c = c.c_addrs

(* Block until every shard answers a ping (socket file present AND the
   server behind it is accepting).  Gives forked children time to
   bind; raises [Failure] past [timeout]. *)
let wait_ready ?(timeout = 10.0) c =
  let cutoff = Unix.gettimeofday () +. timeout in
  Array.iter
    (fun addr ->
      while
        Result.is_error
          (Client.with_failover ~attempts:1 ~timeout:1.0 [ addr ] Client.ping)
      do
        if Unix.gettimeofday () >= cutoff then
          failwith "Shard.wait_ready: shard did not come up";
        Thread.delay 0.02
      done)
    c.c_addrs

let connect ?timeout c =
  router ?vnodes:c.vnodes
    ~shards:(Array.length c.c_addrs)
    (fun i -> Client.connect ?timeout c.c_addrs.(i))

let stop ?(timeout = 5.0) c =
  if not c.stopped then begin
    c.stopped <- true;
    (* Polite first: a Shutdown request triggers each server's
       graceful drain.  A shard that won't die by the cutoff gets
       SIGKILL — stop must not hang the parent. *)
    Array.iter
      (fun addr ->
        match Client.connect ~timeout:1.0 addr with
        | exception Unix.Unix_error _ -> ()
        | cl ->
            Client.shutdown cl;
            Client.close cl)
      c.c_addrs;
    let cutoff = Unix.gettimeofday () +. timeout in
    Array.iter
      (fun pid ->
        let rec reap () =
          match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ ->
              if Unix.gettimeofday () >= cutoff then begin
                (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
                ignore (Unix.waitpid [] pid)
              end
              else begin
                Thread.delay 0.02;
                reap ()
              end
          | _ -> ()
          | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
        in
        reap ())
      c.c_pids;
    Array.iter
      (fun p -> try Unix.unlink p with Unix.Unix_error _ -> ())
      c.c_paths
  end
