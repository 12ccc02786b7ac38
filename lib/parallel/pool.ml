(* Reusable domain pool for the C-BMF hot paths.

   Determinism contract: every parallel entry point is chunk-order- and
   domain-count-invariant.  [map]/[map_reduce] store per-index results in
   a pre-allocated slot array and reduce them sequentially in index
   order, so for any pool size and any chunking the result is
   bit-identical to the sequential fold.  [parallel_for] requires the
   body to write only index-owned locations; under that contract the
   output is bit-identical to the sequential loop.

   Scheduling: one job at a time, described by a single [run] closure
   over a chunk index plus an atomic cursor.  Participating domains
   claim chunks with [Atomic.fetch_and_add] — no per-chunk closure
   allocation, no lock acquisition, no condvar wakeup per chunk.  The
   mutex/condvar pair is only a parking gate between jobs: workers wait
   on an epoch counter, the submitter bumps it and broadcasts once per
   job, and a per-job [pending] countdown wakes the submitter when the
   last straggler finishes.

   Pool size comes from [CBMF_DOMAINS] when set, otherwise
   [Domain.recommended_domain_count ()] (see [Tune]).  A pool of size 1
   (and any call issued from inside a pool task — nested parallelism)
   runs strictly sequentially on the calling domain, with no gate
   traffic at all. *)

type job = {
  run : int -> unit; (* chunk index -> work; never raises (error-wrapped) *)
  n_chunks : int;
  cursor : int Atomic.t; (* next unclaimed chunk *)
  pending : int Atomic.t; (* chunks not yet completed *)
}

type t = {
  size : int;
  mutex : Mutex.t;
  work_ready : Condition.t; (* epoch bumped or stopped *)
  job_done : Condition.t; (* pending reached zero *)
  mutable current : job option;
  mutable epoch : int; (* bumped once per submitted job, under [mutex] *)
  mutable stopped : bool;
  mutable workers : unit Domain.t array;
  submit : Mutex.t; (* one job in flight at a time *)
}

(* True while the current domain is executing a pool task: nested
   parallel calls fall back to the sequential path instead of
   deadlocking on the shared gate. *)
let in_task : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

(* Stable per-domain slot for arena indexing: 0 on the submitting
   domain, 1..size-1 on workers.  Nested (sequential-fallback) calls
   run on the same domain and therefore see the same slot, so a slot's
   scratch is never touched by two domains at once. *)
let slot_key : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)

let slot () = Domain.DLS.get slot_key

(* True on a domain currently executing a pool task: callers that
   would otherwise do setup work for a parallel path (operand packing,
   arena grabs) can skip straight to their sequential kernel. *)
let in_parallel () = Domain.DLS.get in_task

let max_domains = Tune.max_domains

let clamp_size = Tune.clamp_domains

let env_domains = Tune.recommended_domains

(* Claim-and-run loop shared by workers and the submitting domain.
   Each chunk index is claimed exactly once across all domains (the
   fetch-and-add is the only claim path), so [pending] reaches zero
   precisely when every chunk has completed — and the submitter can
   always finish a job alone by draining the cursor itself. *)
let run_chunks pool job =
  let rec loop () =
    let c = Atomic.fetch_and_add job.cursor 1 in
    if c < job.n_chunks then begin
      job.run c;
      if Atomic.fetch_and_add job.pending (-1) = 1 then begin
        (* Last chunk: wake the submitter.  Taken under [mutex] so the
           broadcast cannot slip between the submitter's pending check
           and its wait. *)
        Mutex.lock pool.mutex;
        Condition.broadcast pool.job_done;
        Mutex.unlock pool.mutex
      end;
      loop ()
    end
  in
  loop ()

let worker_loop pool index () =
  Domain.DLS.set in_task true;
  Domain.DLS.set slot_key index;
  let last_epoch = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock pool.mutex;
    while pool.epoch = !last_epoch && not pool.stopped do
      Condition.wait pool.work_ready pool.mutex
    done;
    if pool.stopped then begin
      (* Checked only here, at the gate: a worker mid-job always
         finishes its claimed chunks before it can observe [stopped],
         so shutdown during an in-flight job cannot strand the
         submitter's pending count. *)
      running := false;
      Mutex.unlock pool.mutex
    end
    else begin
      last_epoch := pool.epoch;
      let job = pool.current in
      Mutex.unlock pool.mutex;
      (* [current] may already be cleared if the job finished before we
         woke; the stale epoch was still consumed above. *)
      match job with Some j -> run_chunks pool j | None -> ()
    end
  done

let create n =
  let size = clamp_size n in
  let pool =
    {
      size;
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      job_done = Condition.create ();
      current = None;
      epoch = 0;
      stopped = false;
      workers = [||];
      submit = Mutex.create ();
    }
  in
  if size > 1 then
    pool.workers <-
      Array.init (size - 1) (fun i -> Domain.spawn (worker_loop pool (i + 1)));
  pool

let size pool = pool.size

(* Idempotent: a second (or concurrent) call finds [stopped] already
   set and returns immediately — the first caller owns the join.  This
   makes the [at_exit] guard below safe even when the user already shut
   the pool down explicitly.  A pool remains usable after shutdown: the
   submitting domain simply drains every chunk itself. *)
let shutdown pool =
  Mutex.lock pool.mutex;
  if pool.stopped then Mutex.unlock pool.mutex
  else begin
    pool.stopped <- true;
    Condition.broadcast pool.work_ready;
    Mutex.unlock pool.mutex;
    let workers = pool.workers in
    pool.workers <- [||];
    Array.iter Domain.join workers
  end

(* Run [body 0 .. body (n_chunks-1)] across the pool; re-raises the
   lowest-indexed exception (deterministic regardless of execution
   order) with its original backtrace.  The submitting domain
   participates in claiming chunks. *)
let exec_chunks pool ~n_chunks body =
  if n_chunks <= 0 then ()
  else if pool.size <= 1 || n_chunks = 1 || Domain.DLS.get in_task then
    for c = 0 to n_chunks - 1 do
      body c
    done
  else begin
    Mutex.lock pool.submit;
    let errors = Array.make n_chunks None in
    let run c =
      try body c
      with e ->
        (* Capture the backtrace where the chunk raised, so the
           re-raise on the submitting domain preserves the real
           origin. *)
        errors.(c) <- Some (e, Printexc.get_raw_backtrace ())
    in
    let job =
      { run; n_chunks; cursor = Atomic.make 0; pending = Atomic.make n_chunks }
    in
    Mutex.lock pool.mutex;
    pool.current <- Some job;
    pool.epoch <- pool.epoch + 1;
    Condition.broadcast pool.work_ready;
    Mutex.unlock pool.mutex;
    Domain.DLS.set in_task true;
    run_chunks pool job;
    Domain.DLS.set in_task false;
    Mutex.lock pool.mutex;
    while Atomic.get job.pending > 0 do
      Condition.wait pool.job_done pool.mutex
    done;
    pool.current <- None;
    Mutex.unlock pool.mutex;
    Mutex.unlock pool.submit;
    Array.iter
      (function
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> ())
      errors
  end

let parallel_for ?chunk pool ~n f =
  if n > 0 then begin
    let c =
      match chunk with
      | Some c -> Stdlib.max 1 c
      | None -> Tune.chunk ~size:pool.size ~n ()
    in
    let n_chunks = (n + c - 1) / c in
    exec_chunks pool ~n_chunks (fun ci ->
        let lo = ci * c in
        let hi = Stdlib.min n (lo + c) in
        for i = lo to hi - 1 do
          f i
        done)
  end

let map ?chunk pool ~n f =
  let slots = Array.make n None in
  parallel_for ?chunk pool ~n (fun i -> slots.(i) <- Some (f i));
  Array.map (function Some x -> x | None -> assert false) slots

let map_reduce ?chunk pool ~n ~map:map_f ~init ~reduce =
  (* Mapped in parallel, reduced sequentially in index order: the
     result is bit-identical to the sequential fold for any pool size
     and chunking, even for non-associative float reductions. *)
  Array.fold_left reduce init (map ?chunk pool ~n map_f)

let map_array ?chunk pool f xs =
  map ?chunk pool ~n:(Array.length xs) (fun i -> f xs.(i))

(* --- Global default pool ------------------------------------------- *)

let default_pool : t option ref = ref None

let default_mutex = Mutex.create ()

(* Join the default pool's domains at process exit: a fault that
   unwinds past the pool's users (or a plain exit mid-pipeline) must
   not leak live domains.  [shutdown] is idempotent, so this is safe
   when the pool was already shut down explicitly.  Registered once,
   under [default_mutex]. *)
let at_exit_registered = ref false

let register_at_exit () =
  if not !at_exit_registered then begin
    at_exit_registered := true;
    at_exit (fun () ->
        match !default_pool with Some p -> shutdown p | None -> ())
  end

let default () =
  Mutex.lock default_mutex;
  let pool =
    match !default_pool with
    | Some p -> p
    | None ->
        let p = create (env_domains ()) in
        default_pool := Some p;
        register_at_exit ();
        p
  in
  Mutex.unlock default_mutex;
  pool

(* Resize the shared default pool (the determinism tests use this to
   compare domain counts within one process). *)
let set_default_size n =
  Mutex.lock default_mutex;
  (match !default_pool with Some p -> shutdown p | None -> ());
  default_pool := Some (create n);
  register_at_exit ();
  Mutex.unlock default_mutex
