(* Domain-count bounds and the pool's two scheduling rules.

   The index-range chunk size and the GEMM fan-out threshold only
   decide which domain computes which slot; the determinism contract
   makes the result identical for any value.  Both are fixed rules, so
   a given product runs the same way in every process.  (The serving
   engine's bit-affecting batch chunk is a constant of its own,
   [Engine.chunk_size].)

   On a single-domain pool nothing fans out and every entry point falls
   through to the strictly sequential path. *)

let max_domains = 64

let clamp_domains n = Stdlib.max 1 (Stdlib.min max_domains n)

let recommended_domains () =
  match Sys.getenv_opt "CBMF_DOMAINS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> clamp_domains n
      | _ -> clamp_domains (Domain.recommended_domain_count ()))
  | None -> clamp_domains (Domain.recommended_domain_count ())

(* The cursor scheduler makes a chunk cost one fetch-and-add, so a
   range splits into ~8 chunks per domain and dynamic claiming absorbs
   stragglers.  A 1-domain pool runs the whole range as one chunk. *)
let chunks_per_domain = 8

let chunk ~size ~n =
  if size <= 1 then Stdlib.max 1 n
  else Stdlib.max 1 (n / (chunks_per_domain * size))

(* Waking parked workers costs one gate round-trip, measured at
   7.8–8.3 µs on a 2-vCPU x86-64 host.  The blocked kernels run about
   one multiply-add per ns, so 2¹⁸ multiply-adds (~260 µs) keep the
   wakeup near 3 % of the job. *)
let gemm_fanout ~size ~flops = size > 1 && flops >= 262_144.0
