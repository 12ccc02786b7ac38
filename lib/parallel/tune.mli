(** Domain-count bounds and the pool's scheduling rules.

    Owns the pool's scheduling constants: the index-range chunk size
    and the GEMM fan-out threshold.  Both are fixed rules, not
    measurements, so a given job is scheduled the same way in every
    process.  Self-contained — [Pool] depends on this module, never the
    reverse. *)

val max_domains : int
(** Hard upper bound on pool size (and arena slot count). *)

val clamp_domains : int -> int
(** Clamp a requested domain count into [1, max_domains]. *)

val recommended_domains : unit -> int
(** [CBMF_DOMAINS] if set to a positive integer, otherwise
    [Domain.recommended_domain_count ()]; always clamped. *)

val chunk : size:int -> n:int -> int
(** Chunk size for a pool fan-out over [n] items on [size] domains:
    [max 1 (n / (8·size))], ~8 chunks per domain, and the whole range
    as one chunk when [size <= 1].  Bit-neutral: affects scheduling
    only, never results. *)

val gemm_fanout : size:int -> flops:float -> bool
(** Whether a dense kernel of about [flops] multiply-adds fans out over
    a [size]-domain pool: [size > 1 && flops >= 2¹⁸].  Bit-neutral: the
    panel-parallel kernels are arithmetic-identical to their sequential
    forms, so this threshold affects performance only. *)
