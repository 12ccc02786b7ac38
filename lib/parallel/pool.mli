(** Reusable domain pool for the C-BMF hot paths.

    {b Determinism contract.}  Every parallel entry point is
    chunk-order- and domain-count-invariant:

    - {!map} stores per-index results in a pre-allocated slot array,
      so for any pool size and any chunking the result is bit-identical
      to [Array.init]; a caller folds it sequentially in index order,
      which keeps even non-associative float reductions
      domain-count-invariant.
    - {!parallel_for} requires the body to write only index-owned
      locations; under that contract the output is bit-identical to the
      sequential loop.

    {b Scheduling.}  One job at a time: a single chunk closure plus an
    atomic cursor over the chunk range.  Participating domains claim
    chunks by fetch-and-add — no per-chunk closure allocation, no lock
    contention, no per-chunk condvar traffic.  Workers park on a
    mutex/condvar gate between jobs; the submitter bumps an epoch and
    broadcasts once per job.  Chunk sizes default to {!Tune.chunk}
    (~8 chunks per domain).

    Pool size comes from the [CBMF_DOMAINS] environment variable when
    set, otherwise [Domain.recommended_domain_count ()].  A pool of
    size 1 — and any call issued from inside a pool task (nested
    parallelism) — runs strictly sequentially on the calling domain,
    with no gate traffic.

    Worker internals (the job record, the in-task domain-local flag,
    the exception slots) are private to the implementation; exceptions
    raised by tasks are re-raised on the calling domain with their
    original backtraces, lowest chunk index first. *)

type t
(** A pool of worker domains.  One job (one {!parallel_for}/{!map}
    call) is in flight at a time; concurrent submissions serialize. *)

val create : int -> t
(** [create n] spawns a pool of [n] domains (clamped to [1, 64]); the
    calling domain participates in draining work, so [n - 1] new
    domains are spawned.  A pool of size 1 spawns nothing. *)

val size : t -> int

val shutdown : t -> unit
(** Stop the workers and join them.  Idempotent: a second (or
    concurrent) call returns immediately; the first caller owns the
    join.  Safe concurrently with an in-flight job: mid-job workers
    finish their claimed chunks before exiting, and the pool remains
    usable afterwards (the submitting domain drains every chunk
    itself). *)

val env_domains : unit -> int
(** The pool size the environment requests: [CBMF_DOMAINS] when set to
    a positive integer, otherwise [Domain.recommended_domain_count ()],
    clamped to [1, 64].  Alias for {!Tune.recommended_domains}. *)

val slot : unit -> int
(** Stable scratch-arena index for the current domain: [0] on the
    submitting domain, [1 .. size-1] on workers (always
    [< Tune.max_domains]).  Nested sequential-fallback calls run on the
    same domain and see the same slot, so per-slot scratch is never
    shared between two concurrently running domains.  The slot is per
    domain, not per systhread: every systhread of a domain sees the
    same slot, so two systhreads can share per-slot scratch. *)

val in_parallel : unit -> bool
(** True on a domain currently executing a pool task.  Parallel entry
    points already fall back to sequential when nested; this lets
    callers skip the setup work of a parallel path (pool lookup, arena
    grabs) before even submitting.  The underlying [in_task] flag
    is per domain, not per systhread: while one systhread's job is in
    flight, a sibling systhread of the same domain also reads [true],
    and its own parallel calls run sequentially on its thread. *)

val parallel_for : ?chunk:int -> t -> n:int -> (int -> unit) -> unit
(** [parallel_for pool ~n f] runs [f 0 … f (n-1)] across the pool in
    contiguous chunks of size [chunk] (default: {!Tune.chunk}).  [f]
    must write only locations owned by its index. *)

val map : ?chunk:int -> t -> n:int -> (int -> 'a) -> 'a array
(** [map pool ~n f] is [[| f 0; …; f (n-1) |]], computed in parallel. *)

val map_array : ?chunk:int -> t -> ('a -> 'b) -> 'a array -> 'b array

(** {1 Shared default pool} *)

val default : unit -> t
(** The process-wide pool, created on first use with {!env_domains}
    domains.  Its workers are joined at process exit. *)

val set_default_size : int -> unit
(** Shut down the current default pool (if any) and replace it with a
    fresh pool of the given size — the determinism tests use this to
    compare domain counts within one process. *)
