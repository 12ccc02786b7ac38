(** Per-domain float scratch arenas.

    An arena caches named buffers per pool slot ({!Pool.slot}), so pool
    tasks reuse scratch across tasks and jobs instead of allocating per
    task.  No locking: the pool never runs two domains on one slot at a
    time, and each (slot, id) buffer belongs to exactly one slot.

    A slot belongs to a {e domain}, not to a systhread: every systhread
    of the submitting domain sees slot 0.  Code that two systhreads of
    one domain can run at once (a server's workers calling the serving
    engine) must not take scratch from an arena — a sibling preempted
    mid-task would overwrite its buffers.

    Buffers are returned with unspecified contents ({!grab}) — callers
    must fully overwrite the region they use — or zeroed
    ({!grab_zeroed}) for accumulation targets.  Returned arrays have
    {e exactly} the requested length (reallocated on size change,
    reused when stable). *)

type id = private int

val fresh_id : unit -> id
(** Globally unique buffer name.  Allocate one per distinct scratch
    role at module initialization; uniqueness across subsystems means a
    nested task can never clobber its parent's scratch by accident. *)

type t

val create : unit -> t
(** A new arena with an empty cache for every slot. *)

val grab : t -> id -> int -> float array
(** [grab a id len]: this slot's buffer for [id], of exactly [len]
    elements, contents unspecified. *)

val grab_zeroed : t -> id -> int -> float array
(** {!grab}, then fill with 0. *)
