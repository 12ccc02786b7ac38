(* Per-domain float scratch arenas.

   A pool task that needs temporary buffers (a state-pair product
   block, a staged weighted row, a batch-chunk design matrix) would
   otherwise allocate them once per task — millions of short-lived
   arrays across an EM run.  An arena gives each *slot* (see
   [Pool.slot]: 0 = submitting domain, 1..size-1 = workers) its own
   cache of named buffers, reused across tasks and across jobs.

   Correctness rules, enforced by construction:

   - A buffer is keyed by (slot, id).  Only the domain currently
     occupying a slot touches that slot's buffers, and the pool never
     runs two domains on one slot at a time, so there is no sharing
     and no locking.  Systhreads are not domains: all systhreads of
     the submitting domain share slot 0, so code reachable from two
     of them at once must allocate its own scratch instead.
   - Buffers carry stale garbage from previous tasks.  Callers must
     fully overwrite the region they use ([_into] kernels zero or
     overwrite their whole output) — an arena never zeroes on grab.
   - [grab] returns an array of *exactly* the requested length (the
     flat-matrix layer asserts exact lengths), reallocating when the
     requested size changes and reusing when it is stable — which it
     is across EM iterations, CV folds, and serving batches.

   Nested sequential-fallback calls run on the same domain, hence the
   same slot: a nested task grabbing the same [id] as its parent would
   clobber the parent's scratch.  Call sites avoid this by using one
   [Arena.t] per subsystem with locally unique ids — ids are
   [`Fresh]-allocated, so two subsystems can never collide. *)

type id = int

let next_id = Atomic.make 0

let fresh_id () = Atomic.fetch_and_add next_id 1

type t = {
  (* slots.(slot) is the per-slot id -> buffer table; tables are tiny
     (a handful of ids per subsystem) so an assoc-style pair of parallel
     arrays would do, but a Hashtbl keyed by id keeps it simple.  Each
     table is touched by at most one domain at a time (see above). *)
  slots : (id, float array) Hashtbl.t array;
}

let create () =
  { slots = Array.init Tune.max_domains (fun _ -> Hashtbl.create 8) }

(* [grab a id len] returns this slot's buffer for [id], of exactly
   [len] elements, contents unspecified. *)
let grab a id len =
  let tbl = a.slots.(Pool.slot ()) in
  match Hashtbl.find_opt tbl id with
  | Some buf when Array.length buf = len -> buf
  | _ ->
      let buf = Array.make len 0.0 in
      Hashtbl.replace tbl id buf;
      buf

(* [grab_zeroed] additionally clears the buffer — for accumulation
   targets. *)
let grab_zeroed a id len =
  let buf = grab a id len in
  Array.fill buf 0 len 0.0;
  buf
