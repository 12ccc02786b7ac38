(* Serving-engine stress at state counts no physical testbench reaches:
   spec-driven snapshots with K > 64 states whose effective active
   support differs per state (per_state_drop), checked bit-identical
   against the scalar Model.predict reference at 1, 2 and 4 domains. *)

open Helpers
open Cbmf_linalg
module Synthetic = Cbmf_circuit.Synthetic
module Model = Cbmf_serve.Model
module Engine = Cbmf_serve.Engine
module Pool = Cbmf_parallel.Pool

let big_spec k =
  { Synthetic.k;
    m = 51;
    d = 25;
    active_per_state = 6;
    rho = 0.8;
    noise_sigma = 0.03;
    density = 0.3;
    seed = 17 }

let snapshot ?(drop = 0.35) k =
  let t = Synthetic.truth ~per_state_drop:drop (big_spec k) in
  (t, Model.of_synthetic t)

let row (xs : Mat.t) i = Array.init xs.Mat.cols (fun j -> Mat.get xs i j)

let with_default_size size f =
  let prev = Pool.env_domains () in
  Pool.set_default_size size;
  Fun.protect ~finally:(fun () -> Pool.set_default_size prev) f

let test_snapshot_valid () =
  let t, m = snapshot 96 in
  (match Model.validate m with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invalid synthetic snapshot: %s" e);
  check_int "96 states" 96 m.Model.n_states;
  check_int "active" 6 (Model.n_active m);
  (* per_state_drop really produced per-state-differing support: the
     posterior-mean matrix has zeroed entries in some states only. *)
  let zero_pattern s =
    Array.init (Model.n_active m) (fun j -> Mat.get m.Model.mu j s = 0.0)
  in
  let p0 = zero_pattern 0 in
  check_true "support differs across states"
    (Array.exists
       (fun s -> zero_pattern s <> p0)
       (Array.init 95 (fun s -> s + 1)));
  (* Predictive mean is the oracle: identity standardization makes the
     serving model exact, bit for bit. *)
  let xs, states = Synthetic.batch_inputs t ~salt:2 ~n:10 in
  for i = 0 to 9 do
    let x = row xs i in
    let mean, sd = Model.predict m ~state:states.(i) x in
    check_true "mean is the oracle"
      (Int64.equal
         (Int64.bits_of_float mean)
         (Int64.bits_of_float (Synthetic.mean_at t ~state:states.(i) x)));
    check_true "sd positive" (sd > 0.0)
  done

let check_batch_matches_scalar ~k ~n =
  let t, m = snapshot k in
  let xs, states = Synthetic.batch_inputs t ~salt:1 ~n in
  (* Scalar reference, computed once outside any pool influence. *)
  let ref_means = Array.make n 0.0 and ref_sds = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let mean, sd = Model.predict m ~state:states.(i) (row xs i) in
    ref_means.(i) <- mean;
    ref_sds.(i) <- sd
  done;
  let hashes =
    List.map
      (fun size ->
        with_default_size size (fun () ->
            let means, sds = Engine.predict_batch m ~states ~xs in
            check_int "means length" n (Array.length means);
            for i = 0 to n - 1 do
              if not (Int64.equal (Int64.bits_of_float means.(i))
                        (Int64.bits_of_float ref_means.(i)))
              then
                Alcotest.failf
                  "K=%d domains=%d: mean[%d] %.17g <> scalar %.17g" k size i
                  means.(i) ref_means.(i);
              if not (Int64.equal (Int64.bits_of_float sds.(i))
                        (Int64.bits_of_float ref_sds.(i)))
              then
                Alcotest.failf "K=%d domains=%d: sd[%d] differs from scalar" k
                  size i
            done;
            Int64.logxor (hash_floats means) (hash_floats sds)))
      [ 1; 2; 4 ]
  in
  match hashes with
  | [ h1; h2; h4 ] ->
      check_true "1 = 2 domains" (Int64.equal h1 h2);
      check_true "1 = 4 domains" (Int64.equal h1 h4)
  | _ -> assert false

let test_batch_96_states () =
  (* n > chunk_size forces multi-chunk fan-out; 96 states guarantees
     states beyond the 64 mark are exercised (round-robin hits all). *)
  check_batch_matches_scalar ~k:96 ~n:(Engine.chunk_size + 37)

let test_batch_130_states () = check_batch_matches_scalar ~k:130 ~n:260

let test_every_state_covered () =
  let t, m = snapshot 96 in
  let xs, states = Synthetic.batch_inputs t ~salt:3 ~n:192 in
  let seen = Array.make 96 false in
  Array.iter (fun s -> seen.(s) <- true) states;
  check_true "all 96 states exercised" (Array.for_all Fun.id seen);
  let means, _ = Engine.predict_batch m ~states ~xs in
  check_true "all finite" (Array.for_all Float.is_finite means)

let suite =
  [ ( "engine-stress",
      [ case "snapshot_valid" test_snapshot_valid;
        slow_case "batch_96_states" test_batch_96_states;
        slow_case "batch_130_states" test_batch_130_states;
        case "every_state_covered" test_every_state_covered ] ) ]
