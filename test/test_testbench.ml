open Cbmf_circuit
open Helpers

let lna = lazy (Lna.create ())

let mixer = lazy (Mixer.create ())

let zeros tb = Array.make (Testbench.dim tb) 0.0

(* --- LNA --- *)

let test_lna_dimensions () =
  let tb = Lazy.force lna in
  check_int "1264 variables" 1264 (Testbench.dim tb);
  check_int "paper constant" 1264 Lna.n_process_variables;
  check_int "32 states" 32 (Testbench.n_states tb);
  check_int "3 PoIs" 3 (Testbench.n_pois tb);
  check_int "NF index" 0 (Testbench.poi_index tb "NF");
  check_int "IIP3 index" 2 (Testbench.poi_index tb "IIP3")

let test_lna_nominal_sanity () =
  let tb = Lazy.force lna in
  let pois = tb.Testbench.evaluate ~state:16 (zeros tb) in
  let nf = pois.(0) and vg = pois.(1) and iip3 = pois.(2) in
  check_true "NF positive" (nf > 0.0 && nf < 6.0);
  check_true "gain sensible" (vg > 15.0 && vg < 45.0);
  check_true "IIP3 sensible" (iip3 > -30.0 && iip3 < 20.0)

let test_lna_deterministic () =
  let tb = Lazy.force lna in
  let rng = Cbmf_prob.Rng.create 99 in
  let x = Process.sample tb.Testbench.process rng in
  let a = tb.Testbench.evaluate ~state:5 x in
  let b = tb.Testbench.evaluate ~state:5 x in
  check_true "deterministic" (a = b)

let test_lna_knob_monotonicity () =
  (* More bias current → more gm → lower NF and higher gain. *)
  let tb = Lazy.force lna in
  let x = zeros tb in
  let prev_nf = ref infinity and prev_vg = ref neg_infinity in
  for state = 0 to 31 do
    let p = tb.Testbench.evaluate ~state x in
    check_true "NF decreases" (p.(0) < !prev_nf);
    check_true "VG increases" (p.(1) > !prev_vg);
    prev_nf := p.(0);
    prev_vg := p.(1)
  done

let test_lna_smooth_in_knob () =
  (* Adjacent states differ by a small step: smoothness is the physical
     basis of the C-BMF correlation assumption. *)
  let tb = Lazy.force lna in
  let rng = Cbmf_prob.Rng.create 4 in
  let x = Process.sample tb.Testbench.process rng in
  for state = 0 to 30 do
    let a = tb.Testbench.evaluate ~state x in
    let b = tb.Testbench.evaluate ~state:(state + 1) x in
    check_true "NF smooth" (abs_float (a.(0) -. b.(0)) < 0.1);
    check_true "VG smooth" (abs_float (a.(1) -. b.(1)) < 0.5)
  done

let test_lna_vth_sensitivity () =
  (* Global Vth shift changes the mirrored current hence NF. *)
  let tb = Lazy.force lna in
  let x = zeros tb in
  let base = (tb.Testbench.evaluate ~state:10 x).(0) in
  let x2 = zeros tb in
  x2.(5) <- 2.0;
  (* g:drsheet perturbs the bias reference *)
  let shifted = (tb.Testbench.evaluate ~state:10 x2).(0) in
  check_true "rsheet affects NF" (abs_float (base -. shifted) > 1e-4)

let test_lna_internals () =
  let tb = Lazy.force lna in
  let r = Lna.evaluate_internals tb ~state:0 (zeros tb) in
  check_float ~tol:1e-9 "bias = knob" 2.5e-3 r.Lna.bias_current;
  check_true "gm1 positive" (r.Lna.gm1 > 0.0);
  let r31 = Lna.evaluate_internals tb ~state:31 (zeros tb) in
  check_float ~tol:1e-9 "top bias" 10e-3 r31.Lna.bias_current

let test_lna_periphery_weak () =
  (* A single decap device's mismatch must have a tiny (but defined)
     effect compared with the input device's. *)
  let tb = Lazy.force lna in
  let x = zeros tb in
  let base = (tb.Testbench.evaluate ~state:10 x).(1) in
  let x_m1 = zeros tb in
  x_m1.(8) <- 3.0;
  (* M1 dvth *)
  let x_cap = zeros tb in
  x_cap.(8 + (4 * 200)) <- 3.0;
  (* some decap device's dvth *)
  let d_m1 = abs_float ((tb.Testbench.evaluate ~state:10 x_m1).(1) -. base) in
  let d_cap = abs_float ((tb.Testbench.evaluate ~state:10 x_cap).(1) -. base) in
  check_true "M1 dominates" (d_m1 > 100.0 *. Float.max d_cap 1e-12)

(* --- Mixer --- *)

let test_mixer_dimensions () =
  let tb = Lazy.force mixer in
  check_int "1303 variables" 1303 (Testbench.dim tb);
  check_int "paper constant" 1303 Mixer.n_process_variables;
  check_int "32 states" 32 (Testbench.n_states tb);
  check_int "I1dBCP index" 2 (Testbench.poi_index tb "I1dBCP")

let test_mixer_nominal_sanity () =
  let tb = Lazy.force mixer in
  let p = tb.Testbench.evaluate ~state:16 (zeros tb) in
  check_true "NF" (p.(0) > 3.0 && p.(0) < 20.0);
  check_true "VG" (p.(1) > 5.0 && p.(1) < 35.0);
  check_true "I1dB" (p.(2) > -40.0 && p.(2) < 0.0)

let test_mixer_knob_direction () =
  (* Larger load resistor: more gain, lower input 1 dB point. *)
  let tb = Lazy.force mixer in
  let x = zeros tb in
  let lo = tb.Testbench.evaluate ~state:0 x in
  let hi = tb.Testbench.evaluate ~state:31 x in
  check_true "gain up with RL" (hi.(1) > lo.(1) +. 3.0);
  check_true "I1dB down with RL" (hi.(2) < lo.(2));
  check_true "NF down with RL" (hi.(0) < lo.(0))

let test_mixer_load_mismatch () =
  let tb = Lazy.force mixer in
  let x = zeros tb in
  let base = Mixer.evaluate_internals tb ~state:8 x in
  let x2 = zeros tb in
  (* First resistor variable = RL1 mismatch. *)
  x2.(Testbench.dim tb - 11) <- 2.0;
  let pert = Mixer.evaluate_internals tb ~state:8 x2 in
  check_true "load shifts" (pert.Mixer.load_ohms > base.Mixer.load_ohms)

let test_mixer_smooth_in_knob () =
  let tb = Lazy.force mixer in
  let rng = Cbmf_prob.Rng.create 31 in
  let x = Process.sample tb.Testbench.process rng in
  for state = 0 to 30 do
    let a = tb.Testbench.evaluate ~state x in
    let b = tb.Testbench.evaluate ~state:(state + 1) x in
    check_true "VG smooth" (abs_float (a.(1) -. b.(1)) < 1.0)
  done

let test_mixer_internals () =
  let tb = Lazy.force mixer in
  let r = Mixer.evaluate_internals tb ~state:0 (zeros tb) in
  check_float ~tol:1e-9 "nominal tail" 4e-3 r.Mixer.tail_current;
  check_float ~tol:1e-9 "nominal load" 300.0 r.Mixer.load_ohms;
  check_true "conversion gain linear > 1" (r.Mixer.conversion_gain > 1.0)

let test_mixer_deterministic () =
  let tb = Lazy.force mixer in
  let x = Process.sample tb.Testbench.process (Cbmf_prob.Rng.create 57) in
  let a = tb.Testbench.evaluate ~state:21 x in
  check_bits "repeat evaluation" a (tb.Testbench.evaluate ~state:21 x);
  (* Building the testbench again yields the same simulator. *)
  check_bits "fresh testbench" a ((Mixer.create ()).Testbench.evaluate ~state:21 x)

(* --- PoI access, shared by both testbenches --- *)

(* [poi_index] inverts [poi_names]; [evaluate_poi] and [internals] are
   the same computation as [evaluate], bit for bit. *)
let check_poi_access tb ~internals =
  let names = tb.Testbench.poi_names in
  check_int "one unit per PoI" (Array.length names)
    (Array.length tb.Testbench.poi_units);
  Array.iteri (fun i name -> check_int name i (Testbench.poi_index tb name)) names;
  (match Testbench.poi_index tb "gain" with
  | i -> Alcotest.failf "unknown PoI found at %d" i
  | exception Not_found -> ());
  let x = Process.sample tb.Testbench.process (Cbmf_prob.Rng.create 17) in
  let all = tb.Testbench.evaluate ~state:9 x in
  check_int "one value per PoI" (Array.length names) (Array.length all);
  Array.iteri
    (fun poi v ->
      check_bits
        (Printf.sprintf "evaluate_poi %s" names.(poi))
        [| v |]
        [| Testbench.evaluate_poi tb ~state:9 ~poi x |])
    all;
  check_bits "internals = evaluate" all (internals tb ~state:9 x)

let test_lna_poi_access () =
  check_poi_access (Lazy.force lna) ~internals:(fun tb ~state x ->
      let r = Lna.evaluate_internals tb ~state x in
      [| r.Lna.nf_db; r.Lna.vg_db; r.Lna.iip3_dbm |])

let test_mixer_poi_access () =
  check_poi_access (Lazy.force mixer) ~internals:(fun tb ~state x ->
      let r = Mixer.evaluate_internals tb ~state x in
      [| r.Mixer.nf_db; r.Mixer.vg_db; r.Mixer.i1dbcp_dbm |])

(* --- Cost model + Monte Carlo --- *)

let test_cost_model () =
  let tb = Lazy.force lna in
  (* Calibrated so 1120 samples = 2.72 h, as in Table 1. *)
  check_float ~tol:1e-9 "LNA table cost" 2.72
    (Testbench.simulation_cost_hours tb ~n_samples:1120);
  let tbm = Lazy.force mixer in
  check_float ~tol:1e-9 "mixer table cost" 17.20
    (Testbench.simulation_cost_hours tbm ~n_samples:1120)

let test_montecarlo_shapes () =
  let tb = Lazy.force lna in
  let rng = Cbmf_prob.Rng.create 2 in
  let mc = Montecarlo.generate tb rng ~n_per_state:4 in
  check_int "total" (4 * 32) (Montecarlo.total_samples mc);
  let open Cbmf_linalg in
  check_int "xs rows" 4 mc.Montecarlo.states.(0).Montecarlo.xs.Mat.rows;
  check_int "xs cols" 1264 mc.Montecarlo.states.(0).Montecarlo.xs.Mat.cols;
  check_int "ys cols" 3 mc.Montecarlo.states.(0).Montecarlo.ys.Mat.cols;
  let y = Montecarlo.poi_column mc ~state:3 ~poi:1 in
  check_int "poi col" 4 (Array.length y)

let test_montecarlo_truncate () =
  let tb = Lazy.force lna in
  let rng = Cbmf_prob.Rng.create 2 in
  let mc = Montecarlo.generate tb rng ~n_per_state:5 in
  let cut = Montecarlo.truncate mc ~n:2 in
  check_int "truncated" (2 * 32) (Montecarlo.total_samples cut);
  (* Prefix property: the first rows are identical. *)
  let open Cbmf_linalg in
  check_float "prefix"
    (Mat.get mc.Montecarlo.states.(7).Montecarlo.ys 1 0)
    (Mat.get cut.Montecarlo.states.(7).Montecarlo.ys 1 0)

let mc_hash (mc : Montecarlo.t) =
  let xs = Array.map (fun s -> s.Montecarlo.xs) mc.Montecarlo.states in
  let ys = Array.map (fun s -> s.Montecarlo.ys) mc.Montecarlo.states in
  Int64.logxor (hash_mats xs) (Int64.mul 0x9E3779B97F4A7C15L (hash_mats ys))

let test_montecarlo_rows_are_evaluations () =
  (* Every stored PoI row is the testbench's own answer at the stored
     variation point, bit for bit, in every state. *)
  let tb = Lazy.force mixer in
  let mc = Montecarlo.generate tb (Cbmf_prob.Rng.create 5) ~n_per_state:2 in
  let open Cbmf_linalg in
  Array.iteri
    (fun s st ->
      for i = 0 to 1 do
        check_bits
          (Printf.sprintf "state %d row %d" s i)
          (tb.Testbench.evaluate ~state:s (Mat.row st.Montecarlo.xs i))
          (Mat.row st.Montecarlo.ys i)
      done)
    mc.Montecarlo.states;
  check_bits "poi_column = ys column"
    (Mat.col mc.Montecarlo.states.(4).Montecarlo.ys 2)
    (Montecarlo.poi_column mc ~state:4 ~poi:2)

let test_montecarlo_clean_run () =
  let tb = Lazy.force lna in
  let mc = Montecarlo.generate tb (Cbmf_prob.Rng.create 6) ~n_per_state:3 in
  check_int "nothing dropped" 0 (Montecarlo.total_dropped mc);
  check_true "no state dropped a sample"
    (Array.for_all (fun d -> d = 0) mc.Montecarlo.dropped);
  check_int "samples kept" 3 mc.Montecarlo.n_per_state;
  check_float ~tol:1e-12 "hours = cost model of every sample"
    (Testbench.simulation_cost_hours tb ~n_samples:(3 * 32))
    (Montecarlo.simulation_hours mc);
  check_float ~tol:1e-12 "truncation bills only the kept prefix"
    (Testbench.simulation_cost_hours tb ~n_samples:32)
    (Montecarlo.simulation_hours (Montecarlo.truncate mc ~n:1));
  check_raises_invalid "zero samples per state" (fun () ->
      Montecarlo.generate tb (Cbmf_prob.Rng.create 6) ~n_per_state:0);
  check_raises_invalid "negative samples per state" (fun () ->
      Montecarlo.generate tb (Cbmf_prob.Rng.create 6) ~n_per_state:(-2))

let test_montecarlo_fresh_and_replayable () =
  let tb = Lazy.force lna in
  let rng = Cbmf_prob.Rng.create 9 in
  let first = Montecarlo.generate tb rng ~n_per_state:2 in
  let second = Montecarlo.generate tb rng ~n_per_state:2 in
  let replay = Montecarlo.generate tb (Cbmf_prob.Rng.create 9) ~n_per_state:2 in
  check_true "the same seed replays every bit"
    (Int64.equal (mc_hash first) (mc_hash replay));
  check_true "a second call on one stream draws fresh samples"
    (not (Int64.equal (mc_hash first) (mc_hash second)));
  let open Cbmf_linalg in
  check_true "states draw independent samples"
    (Mat.get first.Montecarlo.states.(0).Montecarlo.xs 0 17
    <> Mat.get first.Montecarlo.states.(9).Montecarlo.xs 0 17)

let suite =
  [ ( "circuit.lna",
      [ case "dimensions" test_lna_dimensions;
        case "nominal sanity" test_lna_nominal_sanity;
        case "deterministic" test_lna_deterministic;
        case "knob monotonicity" test_lna_knob_monotonicity;
        case "knob smoothness" test_lna_smooth_in_knob;
        case "process sensitivity" test_lna_vth_sensitivity;
        case "internals" test_lna_internals;
        case "periphery is weak" test_lna_periphery_weak;
        case "poi lookup and evaluate_poi" test_lna_poi_access ] );
    ( "circuit.mixer",
      [ case "dimensions" test_mixer_dimensions;
        case "nominal sanity" test_mixer_nominal_sanity;
        case "knob directions" test_mixer_knob_direction;
        case "load mismatch" test_mixer_load_mismatch;
        case "knob smoothness" test_mixer_smooth_in_knob;
        case "internals" test_mixer_internals;
        case "deterministic" test_mixer_deterministic;
        case "poi lookup and evaluate_poi" test_mixer_poi_access ] );
    ( "circuit.montecarlo",
      [ case "cost model" test_cost_model;
        case "shapes" test_montecarlo_shapes;
        case "truncate prefix" test_montecarlo_truncate;
        case "rows = testbench evaluate, bitwise"
          test_montecarlo_rows_are_evaluations;
        case "clean run: no drops, cost model, validation"
          test_montecarlo_clean_run;
        case "fresh per call, replayable per seed"
          test_montecarlo_fresh_and_replayable ] ) ]
