(** Seeded test corpus: exact-determinism hashing and deterministic
    random inputs, shared by the unit tests, the smoke executables and
    [bench/e2e] (one implementation instead of per-target copies).

    The FNV-1a hashes fold IEEE-754 {e bit patterns}, so any single-ulp
    difference changes the hash — they make exact determinism goldens
    for "bit-identical at any domain count / across refactors"
    contracts.  {!Cbmf_serve.Codec.fnv1a64} is the byte-level sibling
    used for snapshot checksums; this module hashes float payloads
    directly. *)

open Cbmf_linalg

(** {1 FNV-1a over float bit patterns} *)

val fnv_offset : int64
(** The FNV-1a 64-bit offset basis (the accumulator seed). *)

val hash_floats_acc : int64 -> float array -> int64
(** Fold an array into a running hash (chain for multi-array hashes). *)

val hash_floats : float array -> int64

val hash_vec : Vec.t -> int64

val hash_mat : Mat.t -> int64

val hash_mats : Mat.t array -> int64
(** All matrices chained in order under one accumulator. *)

(** {1 Deterministic random inputs}

    All take an explicit generator so call sites control the stream;
    {!default_rng} reproduces the seed the historical test corpus used. *)

val default_seed : int

val default_rng : unit -> Cbmf_prob.Rng.t
(** A fresh generator seeded with {!default_seed}. *)

val random_vec : Cbmf_prob.Rng.t -> int -> Vec.t

val random_mat : Cbmf_prob.Rng.t -> int -> int -> Mat.t

val random_spd : Cbmf_prob.Rng.t -> int -> Mat.t
(** [aᵀa + (n/2)·I] for a random [n×n] [a] — comfortably positive
    definite at any size. *)

(** {1 Pinned goldens} *)

val montecarlo_lna_seed42_n3_hash : int64
(** FNV-1a hash of all xs then ys matrices of [Montecarlo.generate] on
    the LNA testbench, seed 42, n_per_state 3.  Guards the per-sample
    RNG-splitting contract — the stream must stay bit-identical at any
    CBMF_DOMAINS and across refactors. *)
