(* Oracle/property tests for the domain pool: map must be
   bit-identical to Array.init at every pool size and for any chunking,
   exceptions must propagate deterministically, and a pool must survive
   reuse (including reuse after a failed job).  Also the Monte-Carlo
   determinism regression: fixed seed ⇒ bit-identical data at
   CBMF_DOMAINS = 1, 2 and 4, pinned by a golden hash. *)

open Helpers
module Pool = Cbmf_parallel.Pool

let with_pool n f =
  let pool = Pool.create n in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let gen_case =
  QCheck2.Gen.(
    triple (int_range 1 257) (int_range 1 64) (int_range 0 10_000))

(* The per-index value a pool computes: a float of its own index, so a
   slot written by the wrong index or left unwritten changes the bits. *)
let sample_values seed n =
  let rng = Cbmf_prob.Rng.create seed in
  let xs = Array.init n (fun _ -> Cbmf_prob.Rng.gaussian rng) in
  fun i -> (xs.(i) *. xs.(i) *. 0.25) +. float_of_int i

let map_bits_equal pool ~chunk ~n f =
  let expected = Array.init n f and got = Pool.map ~chunk pool ~n f in
  Array.for_all2
    (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
    expected got

let prop_map_matches_init (n, chunk, seed) =
  let f = sample_values seed n in
  List.for_all
    (fun size -> with_pool size (fun pool -> map_bits_equal pool ~chunk ~n f))
    [ 1; 2; 4; 8 ]

(* Adversarial chunkings: a single chunk spanning everything, one item
   per chunk, and a ragged chunk that leaves a short tail — all must
   reproduce Array.init bit-for-bit at every pool size. *)
let prop_adversarial_chunks (n, _, seed) =
  let f = sample_values seed n in
  List.for_all
    (fun chunk ->
      List.for_all
        (fun size -> with_pool size (fun pool -> map_bits_equal pool ~chunk ~n f))
        [ 1; 2; 4; 8 ])
    [ 1; n; n + 7 ]

let sum xs = Array.fold_left ( + ) 0 xs

let prop_parallel_for_covers (n, chunk, seed) =
  ignore seed;
  List.for_all
    (fun size ->
      with_pool size (fun pool ->
          let hits = Array.make n 0 in
          Pool.parallel_for ~chunk pool ~n (fun i -> hits.(i) <- hits.(i) + 1);
          Array.for_all (fun h -> h = 1) hits))
    [ 1; 2; 4 ]

let test_map_order () =
  with_pool 4 (fun pool ->
      let out = Pool.map ~chunk:3 pool ~n:100 (fun i -> i * i) in
      check_int "length" 100 (Array.length out);
      Array.iteri (fun i v -> check_int "slot" (i * i) v) out)

exception Boom of int

let test_exception_propagation () =
  List.iter
    (fun size ->
      with_pool size (fun pool ->
          (match
             Pool.parallel_for ~chunk:2 pool ~n:64 (fun i ->
                 if i mod 13 = 5 then raise (Boom i))
           with
          | () -> Alcotest.fail "expected Boom"
          | exception Boom i ->
              (* Lowest-index failure, regardless of schedule. *)
              check_int "first failing index" 5 i);
          (* The pool must stay usable after a failed job. *)
          check_int "reuse after failure" 45 (sum (Pool.map pool ~n:10 Fun.id))))
    [ 1; 2; 4 ]

let test_pool_reuse () =
  with_pool 4 (fun pool ->
      for round = 1 to 20 do
        check_int "round sum"
          (round * (round - 1) / 2)
          (sum (Pool.map ~chunk:1 pool ~n:round Fun.id))
      done)

let test_nested_calls_fall_back () =
  with_pool 4 (fun pool ->
      let out =
        Pool.map ~chunk:1 pool ~n:8 (fun i ->
            (* Nested fan-out must run sequentially, not deadlock. *)
            sum (Pool.map pool ~n:(i + 1) Fun.id))
      in
      Array.iteri (fun i v -> check_int "nested sum" (i * (i + 1) / 2) v) out)

let test_size_one_sequential () =
  with_pool 1 (fun pool ->
      check_int "size" 1 (Pool.size pool);
      (* Tasks must run on the calling domain, in index order. *)
      let self = Domain.self () in
      let order = ref [] in
      Pool.parallel_for ~chunk:2 pool ~n:7 (fun i ->
          check_true "same domain" (Domain.self () = self);
          order := i :: !order);
      check_true "index order" (List.rev !order = [ 0; 1; 2; 3; 4; 5; 6 ]))

let test_env_parsing () =
  check_true "env or recommended >= 1" (Pool.env_domains () >= 1)

(* --- Shutdown race hardening ---------------------------------------- *)

(* Shutdown landing while a job is in flight must neither wedge the
   submitter nor lose chunks: workers only observe [stopped] at the
   parking gate, so claimed chunks always complete, and the submitter
   can drain the cursor alone.  The interleaving is timing-dependent —
   every outcome (shutdown before, during, or after the job) must pass
   the same assertions. *)
let test_shutdown_during_job () =
  let pool = Pool.create 4 in
  let n = 4000 in
  let hits = Array.make n 0 in
  let killer =
    Domain.spawn (fun () ->
        Unix.sleepf 0.002;
        Pool.shutdown pool)
  in
  Pool.parallel_for ~chunk:1 pool ~n (fun i ->
      ignore (Sys.opaque_identity (sqrt (float_of_int (i + 1))));
      hits.(i) <- hits.(i) + 1);
  Domain.join killer;
  check_true "every index ran exactly once"
    (Array.for_all (fun h -> h = 1) hits);
  (* A shut-down pool stays usable: the submitter drains everything. *)
  check_int "usable after shutdown" 45 (sum (Pool.map pool ~n:10 Fun.id));
  Pool.shutdown pool

let test_double_and_concurrent_shutdown () =
  let pool = Pool.create 4 in
  Pool.shutdown pool;
  Pool.shutdown pool;
  (* Concurrent shutdowns: exactly one caller owns the join, the rest
     return immediately; none may crash or deadlock. *)
  let pool2 = Pool.create 4 in
  let callers =
    Array.init 3 (fun _ -> Domain.spawn (fun () -> Pool.shutdown pool2))
  in
  Array.iter Domain.join callers;
  Pool.shutdown pool2;
  List.iter
    (fun p ->
      check_int "post-shutdown sum" 45 (sum (Pool.map p ~n:10 Fun.id)))
    [ pool; pool2 ]

(* The failure in the very last chunk — the one that wakes the
   submitter — must still be re-raised, with the backtrace captured at
   the raise site (not at the re-raise). *)
let test_last_chunk_exception () =
  Printexc.record_backtrace true;
  List.iter
    (fun size ->
      with_pool size (fun pool ->
          match
            Pool.parallel_for ~chunk:3 pool ~n:64 (fun i ->
                if i = 63 then raise (Boom i))
          with
          | () -> Alcotest.fail "expected Boom from last chunk"
          | exception Boom i ->
              check_int "last index" 63 i;
              check_true "backtrace preserved"
                (String.length (Printexc.get_backtrace ()) > 0)))
    [ 1; 2; 4 ]

(* --- Monte-Carlo determinism across domain counts ------------------ *)

let montecarlo_hash () =
  let tb = Cbmf_circuit.Lna.create () in
  let rng = Cbmf_prob.Rng.create 42 in
  let mc = Cbmf_circuit.Montecarlo.generate tb rng ~n_per_state:3 in
  let xs =
    Array.map (fun s -> s.Cbmf_circuit.Montecarlo.xs) mc.Cbmf_circuit.Montecarlo.states
  in
  let ys =
    Array.map (fun s -> s.Cbmf_circuit.Montecarlo.ys) mc.Cbmf_circuit.Montecarlo.states
  in
  Int64.logxor (hash_mats xs) (Int64.mul 0x9E3779B97F4A7C15L (hash_mats ys))

let test_montecarlo_domain_invariance () =
  let hashes =
    List.map
      (fun domains ->
        Pool.set_default_size domains;
        montecarlo_hash ())
      [ 1; 2; 4 ]
  in
  Pool.set_default_size (Pool.env_domains ());
  (match hashes with
  | [ h1; h2; h4 ] ->
      check_true "1 vs 2 domains" (Int64.equal h1 h2);
      check_true "1 vs 4 domains" (Int64.equal h1 h4);
      Alcotest.(check int64)
        "pinned golden" montecarlo_lna_seed42_n3_hash h1
  | _ -> assert false)

(* --- Scheduling constants and scratch arenas --- *)

let test_tune_bounds () =
  let module Tune = Cbmf_parallel.Tune in
  check_int "below one" 1 (Tune.clamp_domains 0);
  check_int "negative" 1 (Tune.clamp_domains (-5));
  check_int "in range" 3 (Tune.clamp_domains 3);
  check_int "above the cap" Tune.max_domains
    (Tune.clamp_domains (Tune.max_domains + 1));
  let r = Tune.recommended_domains () in
  check_true "recommended in range" (r >= 1 && r <= Tune.max_domains);
  check_int "serving batch chunk" 64 Cbmf_serve.Engine.chunk_size

(* The two fixed scheduling rules: ~8 chunks per domain, and GEMM
   fan-out from 2¹⁸ multiply-adds on a multi-domain pool. *)
let test_tune_rules () =
  let module Tune = Cbmf_parallel.Tune in
  check_int "8 chunks per domain" 100 (Tune.chunk ~size:2 ~n:1600);
  check_int "never below one item" 1 (Tune.chunk ~size:4 ~n:3);
  check_int "empty range" 1 (Tune.chunk ~size:4 ~n:0);
  List.iter
    (fun n ->
      check_int (Printf.sprintf "one domain: %d items in one chunk" n) n
        (Tune.chunk ~size:1 ~n))
    [ 1; 100; 1600; 100_000 ];
  check_true "2 domains, 262,143 flops: sequential"
    (not (Tune.gemm_fanout ~size:2 ~flops:262_143.0));
  check_true "2 domains, 262,144 flops: fan out"
    (Tune.gemm_fanout ~size:2 ~flops:262_144.0);
  List.iter
    (fun flops ->
      check_true
        (Printf.sprintf "one domain never fans out (%g flops)" flops)
        (not (Tune.gemm_fanout ~size:1 ~flops)))
    [ 0.0; 262_144.0; 1e12; Float.infinity ]

let test_arena () =
  let module Arena = Cbmf_parallel.Arena in
  let a = Arena.create () in
  let id1 = Arena.fresh_id () and id2 = Arena.fresh_id () in
  check_true "fresh ids differ" (id1 <> id2);
  let b1 = Arena.grab a id1 5 in
  check_int "exact length" 5 (Array.length b1);
  b1.(0) <- 42.0;
  check_true "stable size reuses the buffer" (Arena.grab a id1 5 == b1);
  check_true "ids name separate buffers" (Arena.grab a id2 5 != b1);
  let z = Arena.grab_zeroed a id1 5 in
  check_true "grab_zeroed reuses" (z == b1);
  check_true "grab_zeroed clears" (Array.for_all (fun x -> x = 0.0) z);
  let b3 = Arena.grab a id1 7 in
  check_int "size change reallocates" 7 (Array.length b3);
  check_true "arenas are separate" (Arena.grab (Arena.create ()) id1 7 != b3)

let suite =
  [ ( "parallel.pool",
      [ qcase ~count:60 "map = Array.init, bitwise (1/2/4/8 domains)"
          gen_case prop_map_matches_init;
        qcase ~count:20 "adversarial chunkings (1, n, n+7) = Array.init"
          gen_case prop_adversarial_chunks;
        qcase ~count:40 "parallel_for covers each index once" gen_case
          prop_parallel_for_covers;
        case "map preserves index order" test_map_order;
        case "exception propagation + reuse after failure"
          test_exception_propagation;
        case "pool reuse across jobs" test_pool_reuse;
        case "nested calls fall back to sequential"
          test_nested_calls_fall_back;
        case "size-1 pool is strictly sequential" test_size_one_sequential;
        case "env override parsing" test_env_parsing;
        case "tune: domain clamp and chunk sizes" test_tune_bounds;
        case "tune: fixed chunk and GEMM fan-out rules" test_tune_rules;
        case "arena: exact lengths, reuse, zeroing" test_arena ] );
    ( "parallel.shutdown",
      [ case "shutdown during in-flight job" test_shutdown_during_job;
        case "double + concurrent shutdown" test_double_and_concurrent_shutdown;
        case "last-chunk exception propagates with backtrace"
          test_last_chunk_exception ] );
    ( "parallel.montecarlo",
      [ slow_case "bit-identical at CBMF_DOMAINS=1,2,4 (pinned)"
          test_montecarlo_domain_invariance ] ) ]
