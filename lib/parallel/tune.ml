(* Chunk-size and fan-out heuristics for the domain pool.

   The pool's index-range chunking and the GEMM fan-out threshold only
   decide which domain computes which slot; the determinism contract
   makes the result identical for any value.  They are
   auto-calibrated: a one-shot startup microbenchmark prices a
   cross-domain wakeup (mutex + condvar round-trip through a scratch
   domain) and the per-chunk claim cost (an atomic fetch-and-add), and
   the heuristics size chunks so the measured overhead stays a few
   percent of useful work.  (The serving engine's bit-affecting batch
   chunk is a constant of its own, [Engine.chunk_size].)

   On a single-core box ([recommended_domains () = 1]) no pool ever
   fans out, calibration never runs, and every entry point falls
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

let sequential_recommended () = recommended_domains () = 1

(* Memoization below is mutex-guarded rather than [Lazy]: chunk sizes
   are computed on worker domains too (nested fan-outs), and
   concurrently forcing one lazy from two domains is unsound. *)
let memo_mutex = Mutex.create ()

let memoized cell compute =
  Mutex.lock memo_mutex;
  let v =
    match !cell with
    | Some v -> v
    | None ->
        let v = compute () in
        cell := Some v;
        v
  in
  Mutex.unlock memo_mutex;
  v

(* --- Startup microbenchmark ----------------------------------------

   Measured lazily, at most once per process, and only when a
   multi-domain decision actually needs the numbers (a 1-core run
   never pays for it).  Two costs are measured:

   - [claim_ns]: one atomic fetch-and-add plus an indirect call — the
     per-chunk cost of the pool's cursor scheduler.
   - [wakeup_ns]: a mutex/condvar ping-pong round-trip against a
     freshly spawned domain — the per-job cost of waking a parked
     worker (an upper bound on the gate latency, since the scratch
     domain here is cold).

   Both are floors/ceilings-clamped so a noisy measurement cannot
   produce absurd chunking. *)

type calibration = { claim_ns : float; wakeup_ns : float }

let measure_claim_ns () =
  let a = Atomic.make 0 in
  let f = Sys.opaque_identity (fun i -> ignore (Sys.opaque_identity i)) in
  let reps = 200_000 in
  let t0 = Unix.gettimeofday () in
  for i = 0 to reps - 1 do
    ignore (Atomic.fetch_and_add a 1);
    f i
  done;
  let dt = Unix.gettimeofday () -. t0 in
  dt *. 1e9 /. float_of_int reps

let measure_wakeup_ns () =
  (* Ping-pong [reps] times through a mutex + two condvars: each round
     trip is one worker wakeup plus one reply — the same primitives the
     pool's gate uses. *)
  let m = Mutex.create () in
  let to_worker = Condition.create () and to_main = Condition.create () in
  let turn = ref 0 (* 0 = main's move, 1 = worker's move *) in
  let reps = 200 in
  let stop = ref false in
  let worker =
    Domain.spawn (fun () ->
        Mutex.lock m;
        while not !stop do
          while !turn = 0 && not !stop do
            Condition.wait to_worker m
          done;
          if not !stop then begin
            turn := 0;
            Condition.signal to_main
          end
        done;
        Mutex.unlock m)
  in
  let t0 = Unix.gettimeofday () in
  Mutex.lock m;
  for _ = 1 to reps do
    turn := 1;
    Condition.signal to_worker;
    while !turn = 1 do
      Condition.wait to_main m
    done
  done;
  let dt = Unix.gettimeofday () -. t0 in
  stop := true;
  Condition.signal to_worker;
  Mutex.unlock m;
  Domain.join worker;
  dt *. 1e9 /. float_of_int reps /. 2.0

let calibration_memo : calibration option ref = ref None

let calibrated () =
  memoized calibration_memo (fun () ->
      let claim = measure_claim_ns () in
      let wakeup = measure_wakeup_ns () in
      {
        claim_ns = Float.min 2_000.0 (Float.max 5.0 claim);
        wakeup_ns = Float.min 500_000.0 (Float.max 500.0 wakeup);
      })

(* --- Pool chunking -------------------------------------------------

   The cursor scheduler makes chunks cheap (one fetch-and-add each),
   so the heuristic aims for plenty of chunks per domain — dynamic
   claiming then absorbs stragglers — while keeping each chunk's claim
   cost under ~2% of its work.  [cost_hint_ns] is the caller's rough
   per-item cost; the default (100 ns) suits the per-index bodies the
   pool actually runs (state-pair blocks, Monte-Carlo samples, CV
   cells are all far heavier). *)

let chunks_per_domain = 8

let chunk ?(cost_hint_ns = 100.0) ~size ~n () =
  if size <= 1 || n <= 1 then Stdlib.max 1 n
  else begin
    let { claim_ns; _ } = calibrated () in
    (* Claim cost ≤ 2% of chunk work: chunk ≥ 50·claim/item. *)
    let min_items =
      int_of_float (ceil (50.0 *. claim_ns /. Float.max 1.0 cost_hint_ns))
    in
    let balanced = n / (chunks_per_domain * size) in
    Stdlib.max 1 (Stdlib.max min_items balanced)
  end

(* --- Fan-out worthwhileness ----------------------------------------

   A job is worth waking the pool for when the sequential work
   comfortably exceeds the gate cost: one wakeup broadcast plus a
   join.  We require work ≥ 32× the measured wakeup round-trip
   (expressed in ns of estimated work) so even a pessimistic wakeup
   costs ≈ 3% of the job. *)

let fanout_worthwhile ~size ~work_ns =
  size > 1
  &&
  let { wakeup_ns; _ } = calibrated () in
  work_ns >= 32.0 *. wakeup_ns

(* Estimated ns for [flops] floating multiply-adds of straight-line
   OCaml kernel code (~1 flop/ns is the right order on current cores
   for the blocked kernels). *)
let gemm_fanout ~size ~flops = fanout_worthwhile ~size ~work_ns:flops
