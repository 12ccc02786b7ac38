(** Chunk-size and fan-out heuristics for the domain pool.

    Owns every scheduling constant: the [CBMF_CHUNK] override, the
    pool's index-range chunk heuristic, the GEMM fan-out threshold
    (both auto-calibrated from a one-shot startup microbenchmark), and
    the serving engine's fixed batch chunk.  Self-contained — [Pool]
    depends on this module, never the reverse. *)

val max_domains : int
(** Hard upper bound on pool size (and arena slot count). *)

val clamp_domains : int -> int
(** Clamp a requested domain count into [1, max_domains]. *)

val recommended_domains : unit -> int
(** [CBMF_DOMAINS] if set to a positive integer, otherwise
    [Domain.recommended_domain_count ()]; always clamped. *)

val sequential_recommended : unit -> bool
(** True when [recommended_domains () = 1] — e.g. a 1-core container —
    meaning every parallel entry point should run sequentially. *)

type calibration = { claim_ns : float; wakeup_ns : float }
(** Measured cost of one atomic chunk claim and one cross-domain
    condvar wakeup round-trip, in nanoseconds (clamped to sane
    ranges). *)

val calibrated : unit -> calibration
(** Force the lazy one-shot microbenchmark and return its result.
    Never called on purely sequential runs unless forced explicitly. *)

val chunk : ?cost_hint_ns:float -> size:int -> n:int -> unit -> int
(** Chunk size for a pool fan-out over [n] items on [size] domains.
    [CBMF_CHUNK] overrides everything.  Otherwise aims for ~8 chunks
    per domain while keeping the per-chunk claim cost under ~2% of the
    chunk's work ([cost_hint_ns] = rough per-item cost, default
    100 ns).  Bit-neutral: affects scheduling only, never results. *)

val fanout_worthwhile : size:int -> work_ns:float -> bool
(** Whether a job with roughly [work_ns] nanoseconds of sequential
    work is worth waking a [size]-domain pool for.  Always false at
    [size <= 1]. *)

val gemm_fanout : size:int -> flops:float -> bool
(** [fanout_worthwhile] with work estimated at ~1 ns per multiply-add
    of blocked kernel code.  Bit-neutral: the panel-parallel kernels
    are arithmetic-identical to their sequential forms, so this
    threshold affects performance only. *)

val default_batch_chunk : int

val batch_chunk : unit -> int
(** Serving-engine batch chunk: [CBMF_CHUNK] or 64.  Bit-affecting
    (chunk boundaries decide which points share a state bucket), hence
    a pure function of the environment — never of pool size or
    calibration — so results are bit-identical at any
    [CBMF_DOMAINS]. *)
