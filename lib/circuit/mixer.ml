open Cbmf_linalg

let n_states = 32

let f0 = 2.4e9

let omega0 = 2.0 *. Float.pi *. f0

let rsource = 50.0

(* Roster: 7 core transistors (RF pair, 4 switches, tail) + 314
   periphery = 321 devices, plus 11 resistor-mismatch variables:
   8 + 4·321 + 11 = 1303. *)
let n_core = 7

let n_lo_buffer = 64

let n_bias_chain = 64

let n_decap = 186

let n_devices = n_core + n_lo_buffer + n_bias_chain + n_decap

let n_resistor_vars = 11

let n_process_variables =
  Process.n_globals + (Process.params_per_device * n_devices) + n_resistor_vars

let () = assert (n_process_variables = 1303)

let geom_rf = { Mosfet.w = 48e-6; l = 32e-9 }

let geom_sw = { Mosfet.w = 24e-6; l = 32e-9 }

let geom_tail = { Mosfet.w = 96e-6; l = 64e-9 }

let device_specs =
  let spec name (g : Mosfet.geometry) =
    { Process.dev_name = name; dev_w = g.Mosfet.w; dev_l = g.Mosfet.l }
  in
  let core =
    [| spec "MRF1" geom_rf; spec "MRF2" geom_rf; spec "MSW1" geom_sw;
       spec "MSW2" geom_sw; spec "MSW3" geom_sw; spec "MSW4" geom_sw;
       spec "MT" geom_tail |]
  in
  let named prefix i =
    { Process.dev_name = Printf.sprintf "%s%d" prefix i; dev_w = 2e-6; dev_l = 100e-9 }
  in
  let decap i =
    { Process.dev_name = Printf.sprintf "MCAP%d" i; dev_w = 5e-6; dev_l = 1e-6 }
  in
  Array.concat
    [ core;
      Array.init n_lo_buffer (named "MLO");
      Array.init n_bias_chain (named "MBIAS");
      Array.init n_decap decap ]

(* Knob: load R-DAC, 300 → 858 Ω over 32 codes (both sides switched
   together). *)
let knobs = Knob.sweep ~n_states ~lo:300.0 ~hi:858.0

let nominal_tail = 4.0e-3

let lo_amplitude = 0.6

let supply_headroom = 0.45
(* Output swing (per side, V) before hard compression. *)

let mirror_gm_over_id = 8.0

type internals = {
  tail_current : float;
  gm_rf : float;
  load_ohms : float;
  conversion_gain : float;
  nf_db : float;
  vg_db : float;
  i1dbcp_dbm : float;
}

let mean_over f lo n =
  let acc = ref 0.0 in
  for i = lo to lo + n - 1 do
    acc := !acc +. f i
  done;
  !acc /. float_of_int n

(* Smooth minimum of two dB-domain quantities: combines the two
   compression mechanisms without a kink across the knob sweep. *)
let soft_min_db a b =
  -10.0 *. log10 ((10.0 ** (-.a /. 10.0)) +. (10.0 ** (-.b /. 10.0)))

(* The RF front-end operating state of one (state, variation sample):
   tail bias, RF-pair and switch-quad operating points, and the
   cascode-node pole attenuation the scalar PoIs fold in. *)
type rf_front = {
  fr_gl : Process.global;
  fr_i_tail : float;
  fr_op_rf1 : Mosfet.op_point;
  fr_op_rf2 : Mosfet.op_point;
  fr_gm_rf : float;
  fr_sw_ops : Mosfet.op_point array;
  fr_overlap : float;
  fr_eta_sw : float;
  fr_pole_att : float;
}

let rf_front proc ~state (x : Vec.t) =
  assert (state >= 0 && state < n_states);
  let gl = Process.global_of proc x in
  let mm d = Process.mismatch_of proc x d in
  (* --- Tail current from the bias chain + tail-device mismatch. --- *)
  let bias_chain_err =
    mean_over (fun d -> mirror_gm_over_id *. (mm d).Process.m_dvth)
      (n_core + n_lo_buffer) n_bias_chain
  in
  let mmt = mm 6 in
  let rbias_rel = Process.resistor_var proc x 2 in
  let i_tail =
    nominal_tail
    *. (1.0 -. gl.Process.drsheet_rel -. rbias_rel)
    *. (1.0 +. bias_chain_err)
    *. (1.0
       +. mmt.Process.m_dbeta_rel
       +. (mirror_gm_over_id *. mmt.Process.m_dvth))
  in
  let i_tail = Float.max i_tail 2e-4 in
  (* --- RF pair operating point (each side carries I_tail / 2). --- *)
  let mm_rf1 = mm 0 and mm_rf2 = mm 1 in
  let inst_rf1 = Mosfet.instantiate Mosfet.nmos_32nm geom_rf gl mm_rf1 in
  let inst_rf2 = Mosfet.instantiate Mosfet.nmos_32nm geom_rf gl mm_rf2 in
  let op_rf1 = Mosfet.op_at_current inst_rf1 ~id:(i_tail /. 2.0) in
  let op_rf2 = Mosfet.op_at_current inst_rf2 ~id:(i_tail /. 2.0) in
  let gm_rf = 0.5 *. (op_rf1.Mosfet.gm +. op_rf2.Mosfet.gm) in
  (* --- Switching quad: overdrive sets commutation sharpness. --- *)
  let sw_ops =
    Array.init 4 (fun i ->
        let inst = Mosfet.instantiate Mosfet.nmos_32nm geom_sw gl (mm (2 + i)) in
        Mosfet.op_at_current inst ~id:(i_tail /. 2.0))
  in
  let vov_sw =
    Array.fold_left (fun acc (op : Mosfet.op_point) -> acc +. op.Mosfet.vov) 0.0 sw_ops
    /. 4.0
  in
  (* Fraction of the LO period spent with both switches on. *)
  let overlap = Float.min 0.45 (sqrt 2.0 *. vov_sw /. (Float.pi *. lo_amplitude)) in
  let eta_sw = 1.0 -. overlap in
  (* --- Cascode-node pole. --- *)
  let c_node =
    op_rf1.Mosfet.cgd
    +. (2.0 *. sw_ops.(0).Mosfet.cgs)
    +. (60e-15 *. (1.0 +. gl.Process.dcpar_rel))
  in
  let gm_sw = sw_ops.(0).Mosfet.gm in
  let pole_att = 1.0 /. sqrt (1.0 +. ((omega0 *. c_node /. gm_sw) ** 2.0)) in
  {
    fr_gl = gl;
    fr_i_tail = i_tail;
    fr_op_rf1 = op_rf1;
    fr_op_rf2 = op_rf2;
    fr_gm_rf = gm_rf;
    fr_sw_ops = sw_ops;
    fr_overlap = overlap;
    fr_eta_sw = eta_sw;
    fr_pole_att = pole_att;
  }

let evaluate_raw proc ~state (x : Vec.t) =
  let fr = rf_front proc ~state x in
  let gl = fr.fr_gl
  and i_tail = fr.fr_i_tail
  and op_rf1 = fr.fr_op_rf1
  and op_rf2 = fr.fr_op_rf2
  and gm_rf = fr.fr_gm_rf
  and sw_ops = fr.fr_sw_ops
  and overlap = fr.fr_overlap
  and eta_sw = fr.fr_eta_sw
  and pole_att = fr.fr_pole_att in
  (* --- Loads: R-DAC with sheet and local mismatch; decaps load the
     IF node only weakly (ignored for gain at low IF). --- *)
  let rl_nominal = Knob.value knobs state in
  let rl1 =
    rl_nominal *. (1.0 +. gl.Process.drsheet_rel)
    *. (1.0 +. Process.resistor_var proc x 0)
  in
  let rl2 =
    rl_nominal *. (1.0 +. gl.Process.drsheet_rel)
    *. (1.0 +. Process.resistor_var proc x 1)
  in
  let rl_eff = 0.5 *. (rl1 +. rl2) in
  (* --- Conversion gain (RF gate voltage → differential IF). --- *)
  let conversion_gain = 2.0 /. Float.pi *. gm_rf *. rl_eff *. eta_sw *. pole_att in
  let vg_db = Units.db_of_voltage_ratio (Float.max conversion_gain 1e-9) in
  (* --- SSB noise figure.  All terms are output-referred PSDs divided
     by the source contribution (4kT·Rs through the signal path); the
     image band doubles the source term's denominator share. --- *)
  let source_out = conversion_gain ** 2.0 *. Units.four_kt *. rsource in
  let rf_noise =
    (Mosfet.thermal_noise_psd op_rf1 +. Mosfet.thermal_noise_psd op_rf2)
    *. ((rl_eff *. eta_sw *. pole_att *. 2.0 /. Float.pi) ** 2.0)
  in
  let switch_noise =
    (* Switches contribute only during overlap. *)
    4.0 *. Mosfet.thermal_noise_psd sw_ops.(0) *. overlap *. (rl_eff ** 2.0)
  in
  let load_noise = 2.0 *. Units.four_kt *. rl_eff in
  let lo_buffer_noise =
    (* Aggregated LO-chain phase noise floor, modulated by γ spread. *)
    2.0e-18 *. (1.0 +. gl.Process.dgamma_rel) *. (rl_eff /. 500.0) ** 2.0
  in
  let total_excess = rf_noise +. switch_noise +. load_noise +. lo_buffer_noise in
  (* SSB: source noise is received in the signal band only, while the
     mixer folds its own noise from both bands → factor 2 on excess,
     plus the image of the source itself. *)
  let noise_factor = 2.0 +. (2.0 *. total_excess /. source_out) in
  let nf_db = 10.0 *. log10 noise_factor in
  (* --- Input 1 dB compression: weak nonlinearity vs output clipping. --- *)
  let g3_eff =
    (* Differential pair: even orders cancel; third order survives. *)
    op_rf1.Mosfet.gm3 +. op_rf2.Mosfet.gm3
  in
  let iip3_weak =
    Nonlin.iip3_dbm ~gm:(2.0 *. gm_rf)
      ~gm3:(if abs_float g3_eff < 1e-6 then 1e-6 else g3_eff)
      ~zs_mag:0.0 ~vgs_per_vsource:0.5 ~rsource
  in
  let p1db_weak = Nonlin.p1db_from_iip3_dbm iip3_weak in
  let v_clip = Float.min (i_tail *. rl_eff) supply_headroom in
  let p1db_clip =
    Nonlin.compression_limited_p1db_dbm ~vlimit:v_clip
      ~gain_v:(conversion_gain *. 0.5) ~rsource
  in
  let i1dbcp_dbm = soft_min_db p1db_weak p1db_clip in
  {
    tail_current = i_tail;
    gm_rf;
    load_ohms = rl_eff;
    conversion_gain;
    nf_db;
    vg_db;
    i1dbcp_dbm;
  }

let create () =
  let proc = Process.create ~n_resistor_vars device_specs in
  assert (Process.dim proc = n_process_variables);
  let evaluate ~state x =
    let r = evaluate_raw proc ~state x in
    [| r.nf_db; r.vg_db; r.i1dbcp_dbm |]
  in
  {
    Testbench.name = "mixer";
    process = proc;
    knobs;
    poi_names = [| "NF"; "VG"; "I1dBCP" |];
    poi_units = [| "dB"; "dB"; "dBm" |];
    evaluate;
    (* 17.20 h for 1120 transistor-level samples (paper, Table 2). *)
    seconds_per_sample = 17.20 *. 3600.0 /. 1120.0;
  }

let evaluate_internals tb ~state x = evaluate_raw tb.Testbench.process ~state x
