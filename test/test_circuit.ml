open Cbmf_circuit
open Helpers

(* --- Units --- *)

let test_db_conversions () =
  check_float ~tol:1e-12 "10 dB" 10.0 (Units.db_of_power_ratio 10.0);
  check_float ~tol:1e-12 "20 dB" 20.0 (Units.db_of_voltage_ratio 10.0);
  check_float ~tol:1e-12 "roundtrip power" 3.7
    (Units.db_of_power_ratio (Units.power_ratio_of_db 3.7));
  check_float ~tol:1e-12 "roundtrip voltage" (-2.5)
    (Units.db_of_voltage_ratio (Units.voltage_ratio_of_db (-2.5)))

let test_dbm () =
  check_float ~tol:1e-12 "0 dBm = 1 mW" 0.0 (Units.dbm_of_watts 1e-3);
  check_float ~tol:1e-12 "30 dBm = 1 W" 30.0 (Units.dbm_of_watts 1.0);
  check_float ~tol:1e-9 "watts roundtrip" 2e-3 (Units.watts_of_dbm (Units.dbm_of_watts 2e-3));
  (* 1 V amplitude across 50 Ω: P = 1/(100) W = 10 dBm. *)
  check_float ~tol:1e-9 "vamp" 10.0 (Units.dbm_of_vamp 1.0 ~r:50.0)

let test_thermal () =
  check_float ~tol:1e-4 "Ut at 300K" 0.02585 Units.thermal_voltage;
  check_true "4kT" (Units.four_kt > 1.6e-20 && Units.four_kt < 1.7e-20)

(* --- Process --- *)

let specs =
  [| { Process.dev_name = "M1"; dev_w = 10e-6; dev_l = 100e-9 };
     { Process.dev_name = "M2"; dev_w = 1e-6; dev_l = 100e-9 } |]

let test_process_dim () =
  let p = Process.create specs in
  check_int "dim" (8 + 8) (Process.dim p);
  let p2 = Process.create ~n_resistor_vars:3 specs in
  check_int "dim with resistors" (8 + 8 + 3) (Process.dim p2);
  check_int "n_devices" 2 (Process.n_devices p)

let test_process_decode () =
  let p = Process.create specs in
  let x = Array.make (Process.dim p) 0.0 in
  x.(0) <- 2.0;
  (* global dvth, sigma 15 mV *)
  let g = Process.global_of p x in
  check_float ~tol:1e-12 "global dvth" 0.030 g.Process.dvth;
  check_float "other globals zero" 0.0 g.Process.dbeta_rel;
  x.(8) <- 1.0;
  (* M1 local dvth *)
  let m1 = Process.mismatch_of p x 0 in
  let area = 10e-6 *. 100e-9 in
  check_float ~tol:1e-9 "pelgrom sigma" (2.5e-9 /. sqrt area) m1.Process.m_dvth;
  let m2 = Process.mismatch_of p x 1 in
  check_float "m2 unaffected" 0.0 m2.Process.m_dvth

let test_pelgrom_scaling () =
  let p = Process.create specs in
  let x = Array.make (Process.dim p) 0.0 in
  x.(8) <- 1.0;
  x.(12) <- 1.0;
  let m1 = Process.mismatch_of p x 0 and m2 = Process.mismatch_of p x 1 in
  (* M2 is 10× smaller area → √10 larger sigma. *)
  check_float ~tol:1e-9 "area scaling" (sqrt 10.0)
    (m2.Process.m_dvth /. m1.Process.m_dvth)

let test_pelgrom_coefficients () =
  (* [avt] and [abeta] set each device's local Vth and beta sigmas by
     the Pelgrom law, A / sqrt(W·L). *)
  let p = Process.create ~avt:5e-9 ~abeta:2e-8 specs in
  let x = Array.make (Process.dim p) 0.0 in
  x.(8) <- 1.0;
  x.(9) <- 1.0;
  let m1 = Process.mismatch_of p x 0 in
  let area = 10e-6 *. 100e-9 in
  check_float ~tol:1e-9 "vth sigma" (5e-9 /. sqrt area) m1.Process.m_dvth;
  check_float ~tol:1e-9 "beta sigma" (2e-8 /. sqrt area) m1.Process.m_dbeta_rel

let test_resistor_vars () =
  let p = Process.create ~n_resistor_vars:2 specs in
  let x = Array.make (Process.dim p) 0.0 in
  x.(Process.dim p - 1) <- 3.0;
  check_float ~tol:1e-12 "resistor var" 0.03 (Process.resistor_var p x 1);
  check_float "other zero" 0.0 (Process.resistor_var p x 0)

let test_variable_names () =
  let p = Process.create ~n_resistor_vars:1 specs in
  check_true "global name" (String.equal (Process.variable_name p 0) "g:dvth");
  check_true "device name" (String.equal (Process.variable_name p 8) "M1:dvth");
  check_true "resistor name" (String.equal (Process.variable_name p 16) "r:0");
  check_int "device_index" 1 (Process.device_index p "M2")

let test_sample_dim () =
  let p = Process.create specs in
  let r = Cbmf_prob.Rng.create 1 in
  check_int "sample dim" (Process.dim p) (Array.length (Process.sample p r))

(* --- Mosfet --- *)

let geom = { Mosfet.w = 20e-6; l = 100e-9 }

let inst = Mosfet.nominal Mosfet.nmos_32nm geom

let test_id_monotone () =
  let prev = ref 0.0 in
  List.iter
    (fun vgs ->
      let id = Mosfet.drain_current inst ~vgs in
      check_true "monotone in vgs" (id > !prev);
      prev := id)
    [ 0.1; 0.2; 0.3; 0.4; 0.5; 0.7; 0.9 ]

let test_gm_matches_derivative () =
  List.iter
    (fun vgs ->
      let h = 1e-6 in
      let num =
        (Mosfet.drain_current inst ~vgs:(vgs +. h)
        -. Mosfet.drain_current inst ~vgs:(vgs -. h))
        /. (2.0 *. h)
      in
      let gm = Mosfet.transconductance inst ~vgs in
      check_true "gm = dId/dVgs"
        (abs_float (num -. gm) <= 1e-5 *. Float.max gm 1e-9))
    [ 0.2; 0.35; 0.5; 0.8 ]

let test_bias_at_current () =
  List.iter
    (fun id ->
      let op = Mosfet.op_at_current inst ~id in
      check_true "id matches" (abs_float (op.Mosfet.id -. id) <= 1e-9 *. id);
      check_true "gm positive" (op.Mosfet.gm > 0.0))
    [ 1e-5; 1e-4; 1e-3; 5e-3 ]

let test_subthreshold_exponential () =
  (* Below threshold the current is ~exponential: equal Vgs steps give
     equal current ratios. *)
  let i1 = Mosfet.drain_current inst ~vgs:0.15 in
  let i2 = Mosfet.drain_current inst ~vgs:0.20 in
  let i3 = Mosfet.drain_current inst ~vgs:0.25 in
  let r1 = i2 /. i1 and r2 = i3 /. i2 in
  check_true "exponential region" (abs_float (r1 -. r2) /. r1 < 0.15)

let test_vth_shift () =
  (* A +10 mV Vth shift at fixed Vgs is a −10 mV Vgs shift. *)
  let g = Mosfet.nominal Mosfet.nmos_32nm geom in
  let shifted =
    Mosfet.instantiate Mosfet.nmos_32nm geom
      { Process.dvth = 0.01; dbeta_rel = 0.0; dl_rel = 0.0; dw_rel = 0.0;
        dcox_rel = 0.0; drsheet_rel = 0.0; dcpar_rel = 0.0; dgamma_rel = 0.0 }
      { Process.m_dvth = 0.0; m_dbeta_rel = 0.0; m_dl_rel = 0.0; m_dw_rel = 0.0 }
  in
  check_float ~tol:1e-15 "vth shift"
    (Mosfet.drain_current g ~vgs:0.49)
    (Mosfet.drain_current shifted ~vgs:0.50)

let test_gm_over_id_bounds () =
  (* gm/Id must fall between the weak-inversion limit 1/(n·Ut) and 0. *)
  List.iter
    (fun id ->
      let op = Mosfet.op_at_current inst ~id in
      let gm_id = op.Mosfet.gm /. op.Mosfet.id in
      check_true "gm/Id < weak limit"
        (gm_id < 1.0 /. (Mosfet.nmos_32nm.Mosfet.n_slope *. Units.thermal_voltage));
      check_true "gm/Id positive" (gm_id > 0.0))
    [ 1e-6; 1e-4; 1e-2 ]

let test_gm3_sign_change () =
  (* gm3 > 0 in weak inversion, < 0 deep in strong inversion. *)
  let weak = Mosfet.op_at_vgs inst ~vgs:0.25 in
  let strong = Mosfet.op_at_vgs inst ~vgs:0.9 in
  check_true "gm3 weak positive" (weak.Mosfet.gm3 > 0.0);
  check_true "gm3 strong negative" (strong.Mosfet.gm3 < 0.0)

let test_noise_psd () =
  let op = Mosfet.op_at_current inst ~id:1e-3 in
  check_float ~tol:1e-30 "thermal psd"
    (Units.four_kt *. op.Mosfet.gamma *. op.Mosfet.gm)
    (Mosfet.thermal_noise_psd op);
  let f1 = Mosfet.flicker_noise_psd inst op ~freq:1e3 in
  let f2 = Mosfet.flicker_noise_psd inst op ~freq:1e6 in
  check_float ~tol:1e-3 "1/f slope" 1000.0 (f1 /. f2);
  check_true "flicker negligible at RF"
    (Mosfet.flicker_noise_psd inst op ~freq:2.4e9 < 0.01 *. Mosfet.thermal_noise_psd op)

let test_capacitances () =
  let op = Mosfet.op_at_current inst ~id:1e-3 in
  check_true "cgs > cgd" (op.Mosfet.cgs > op.Mosfet.cgd);
  check_true "cgs reasonable" (op.Mosfet.cgs > 1e-15 && op.Mosfet.cgs < 1e-12)

(* --- Knob --- *)

let test_knob_sweep () =
  let k = Knob.sweep ~n_states:5 ~lo:100.0 ~hi:500.0 in
  check_int "count" 5 (Knob.n_states k);
  check_float "first" 100.0 (Knob.value k 0);
  check_float "last" 500.0 (Knob.value k 4);
  check_float "step" 200.0 (Knob.value k 1 -. Knob.value k 0 +. Knob.value k 0)

let test_knob_geometric () =
  let k = Knob.geometric_sweep ~n_states:4 ~lo:1.0 ~hi:8.0 in
  check_float ~tol:1e-12 "geometric ratio" 2.0 (Knob.value k 1 /. Knob.value k 0);
  check_float ~tol:1e-9 "endpoint" 8.0 (Knob.value k 3)

let suite =
  [ ( "circuit.units",
      [ case "db conversions" test_db_conversions;
        case "dbm" test_dbm;
        case "thermal constants" test_thermal ] );
    ( "circuit.process",
      [ case "dimensions" test_process_dim;
        case "decode" test_process_decode;
        case "pelgrom scaling" test_pelgrom_scaling;
        case "pelgrom coefficients" test_pelgrom_coefficients;
        case "resistor vars" test_resistor_vars;
        case "variable names" test_variable_names;
        case "sample dim" test_sample_dim ] );
    ( "circuit.mosfet",
      [ case "id monotone" test_id_monotone;
        case "gm = numeric derivative" test_gm_matches_derivative;
        case "bias at current" test_bias_at_current;
        case "subthreshold exponential" test_subthreshold_exponential;
        case "vth shift equivalence" test_vth_shift;
        case "gm/Id bounds" test_gm_over_id_bounds;
        case "gm3 sign change" test_gm3_sign_change;
        case "noise PSDs" test_noise_psd;
        case "capacitances" test_capacitances ] );
    ( "circuit.knob",
      [ case "linear sweep" test_knob_sweep;
        case "geometric sweep" test_knob_geometric ] ) ]
