open Cbmf_linalg

let n_states = 32

let f0 = 2.4e9

let omega0 = 2.0 *. Float.pi *. f0

let rsource = 50.0

(* Device roster: 3 core transistors + 311 periphery = 314 devices,
   hence 8 + 4·314 = 1264 variation variables. *)
let n_core = 3

let n_mirror_legs = 64

let n_bias_chain = 64

let n_decap = 183

let n_devices = n_core + n_mirror_legs + n_bias_chain + n_decap

let n_process_variables = Process.n_globals + (Process.params_per_device * n_devices)

let () = assert (n_process_variables = 1264)

(* Core geometries (W × L in meters). *)
let geom_m1 = { Mosfet.w = 64e-6; l = 32e-9 }

let geom_m2 = { Mosfet.w = 64e-6; l = 32e-9 }

let geom_mb = { Mosfet.w = 16e-6; l = 32e-9 }

let device_specs =
  let core =
    [| { Process.dev_name = "M1"; dev_w = geom_m1.Mosfet.w; dev_l = geom_m1.Mosfet.l };
       { Process.dev_name = "M2"; dev_w = geom_m2.Mosfet.w; dev_l = geom_m2.Mosfet.l };
       { Process.dev_name = "MB"; dev_w = geom_mb.Mosfet.w; dev_l = geom_mb.Mosfet.l } |]
  in
  let leg i =
    { Process.dev_name = Printf.sprintf "MLEG%d" i; dev_w = 2e-6; dev_l = 100e-9 }
  in
  let bias i =
    { Process.dev_name = Printf.sprintf "MBIAS%d" i; dev_w = 1e-6; dev_l = 100e-9 }
  in
  let decap i =
    { Process.dev_name = Printf.sprintf "MCAP%d" i; dev_w = 5e-6; dev_l = 1e-6 }
  in
  Array.concat
    [ core;
      Array.init n_mirror_legs leg;
      Array.init n_bias_chain bias;
      Array.init n_decap decap ]

(* Fixed passives. *)
let inductance_ls = 0.9e-9

let capacitance_cex = 500e-15 (* explicit gate-source capacitor for matching *)

let inductance_ld = 3.0e-9

let tank_q = 12.0

let resistance_rp = tank_q *. omega0 *. inductance_ld

(* Nominal decap loading at the output node: each decap/ESD device
   contributes ~0.4 fF of junction capacitance. *)
let decap_unit_c = 0.4e-15

let decap_total_c = float_of_int n_decap *. decap_unit_c

(* Input-device nominal Cgs (for tuning Lg once, at design time). *)
let nominal_cgs1 =
  let inst = Mosfet.nominal Mosfet.nmos_32nm geom_m1 in
  let op = Mosfet.op_at_current inst ~id:3e-3 in
  op.Mosfet.cgs

let inductance_lg =
  (1.0 /. (omega0 *. omega0 *. (nominal_cgs1 +. capacitance_cex)))
  -. inductance_ls

(* Output tank capacitor tuned at design time, leaving room for the
   device and decap parasitics.  The 7 % detune keeps the operating
   point off the exact resonance peak, where the gain would be
   first-order insensitive to capacitance spread (a real tank is never
   perfectly centered either). *)
let tank_c =
  let c =
    (0.93 /. (omega0 *. omega0 *. inductance_ld)) -. decap_total_c
  in
  assert (c > 0.0);
  c

(* Knob: mirrored bias current, geometric 2.5→10 mA over 32 codes —
   strong inversion throughout, past the gm3 sign change. *)
let knobs = Knob.geometric_sweep ~n_states ~lo:2.5e-3 ~hi:10.0e-3

(* gm/Id of the mirror devices, used to translate Vth mismatch into
   current error (moderate inversion). *)
let mirror_gm_over_id = 8.0

type internals = {
  bias_current : float;
  gm1 : float;
  nf_db : float;
  vg_db : float;
  iip3_dbm : float;
}

let mean_over f lo n =
  let acc = ref 0.0 in
  for i = lo to lo + n - 1 do
    acc := !acc +. f i
  done;
  !acc /. float_of_int n

(* The small-signal model of one (state, variation sample): the
   operating points, the stamped netlist, and everything the gain /
   noise / IIP3 blocks need downstream.  Built once per sample and
   shared between the single-frequency PoI evaluation and the
   multi-frequency gain curve, which sweeps the same netlist through
   {!Mna.ac_sweep} instead of rebuilding it per point. *)
type small_signal = {
  ckt : Mna.t;
  n_in : Mna.node;
  n_g : Mna.node;
  n_s : Mna.node;
  n_x : Mna.node;
  n_out : Mna.node;
  ss_op1 : Mosfet.op_point;
  ss_op2 : Mosfet.op_point;
  ss_rp : float;  (* tank loss resistor, with sheet spread *)
  ss_id1 : float;  (* mirrored drain current of the input device *)
}

let small_signal proc ~state (x : Vec.t) =
  assert (state >= 0 && state < n_states);
  let gl = Process.global_of proc x in
  let mm d = Process.mismatch_of proc x d in
  let mm1 = mm 0 and mm2 = mm 1 and mmb = mm 2 in
  (* --- Bias: reference current, degraded by the bias chain and sheet
     resistance, then mirrored with MB→M1 mismatch. --- *)
  let bias_chain_err =
    mean_over
      (fun d -> mirror_gm_over_id *. (mm d).Process.m_dvth)
      (n_core + n_mirror_legs) n_bias_chain
  in
  let mirror_leg_err =
    mean_over
      (fun d -> mirror_gm_over_id *. (mm d).Process.m_dvth)
      n_core n_mirror_legs
  in
  let i_ref =
    Knob.value knobs state
    *. (1.0 -. gl.Process.drsheet_rel)
    *. (1.0 +. bias_chain_err)
  in
  let id1 =
    i_ref
    *. (1.0 +. (mm1.Process.m_dbeta_rel -. mmb.Process.m_dbeta_rel))
    *. (1.0
       +. (mirror_gm_over_id *. (mmb.Process.m_dvth -. mm1.Process.m_dvth))
       +. mirror_leg_err)
  in
  let id1 = Float.max id1 1e-5 in
  (* --- Device operating points. --- *)
  let inst1 = Mosfet.instantiate Mosfet.nmos_32nm geom_m1 gl mm1 in
  let inst2 = Mosfet.instantiate Mosfet.nmos_32nm geom_m2 gl mm2 in
  let op1 = Mosfet.op_at_current inst1 ~id:id1 in
  let op2 = Mosfet.op_at_current inst2 ~id:id1 in
  (* --- Output-node parasitics from the decap/ESD periphery. --- *)
  let decap_c =
    let base = n_core + n_mirror_legs + n_bias_chain in
    let acc = ref 0.0 in
    for d = base to base + n_decap - 1 do
      let m = mm d in
      acc := !acc +. (decap_unit_c *. (1.0 +. m.Process.m_dw_rel))
    done;
    !acc *. (1.0 +. gl.Process.dcpar_rel)
  in
  (* --- Small-signal netlist. --- *)
  let ckt = Mna.create () in
  let n_in = Mna.fresh_node ckt "in" in
  let n_g = Mna.fresh_node ckt "gate" in
  let n_s = Mna.fresh_node ckt "src" in
  let n_x = Mna.fresh_node ckt "casc" in
  let n_out = Mna.fresh_node ckt "out" in
  Mna.resistor ckt n_in Mna.ground rsource;
  Mna.inductor ckt n_in n_g inductance_lg;
  Mna.capacitor ckt n_g n_s (op1.Mosfet.cgs +. capacitance_cex);
  Mna.capacitor ckt n_g n_x op1.Mosfet.cgd;
  Mna.vccs ckt ~out_pos:n_x ~out_neg:n_s ~ctrl_pos:n_g ~ctrl_neg:n_s
    ~gm:op1.Mosfet.gm;
  Mna.conductance ckt n_x n_s op1.Mosfet.gds;
  Mna.inductor ckt n_s Mna.ground inductance_ls;
  (* Cascode device, gate at AC ground. *)
  Mna.capacitor ckt n_x Mna.ground op2.Mosfet.cgs;
  Mna.vccs ckt ~out_pos:n_out ~out_neg:n_x ~ctrl_pos:Mna.ground ~ctrl_neg:n_x
    ~gm:op2.Mosfet.gm;
  Mna.conductance ckt n_out n_x op2.Mosfet.gds;
  Mna.capacitor ckt n_out Mna.ground op2.Mosfet.cgd;
  (* Output tank (loss resistor carries the sheet-resistance spread). *)
  Mna.inductor ckt n_out Mna.ground inductance_ld;
  Mna.capacitor ckt n_out Mna.ground
    ((tank_c *. (1.0 +. gl.Process.dcpar_rel)) +. decap_c);
  let rp = resistance_rp *. (1.0 +. (0.5 *. gl.Process.drsheet_rel)) in
  Mna.resistor ckt n_out Mna.ground rp;
  {
    ckt;
    n_in;
    n_g;
    n_s;
    n_x;
    n_out;
    ss_op1 = op1;
    ss_op2 = op2;
    ss_rp = rp;
    ss_id1 = id1;
  }

(* Gain at one factorized frequency point: Norton drive of the source
   EMF (unit EMF → current 1/Rs into the input node), referenced to the
   matched input voltage (EMF/2). *)
let gain_db ss analysis =
  let sol = Mna.solve_injection analysis ~pos:ss.n_in ~neg:Mna.ground in
  let scale = 1.0 /. rsource in
  let v_out = Complex.norm (Mna.voltage sol ss.n_out) *. scale in
  Units.db_of_voltage_ratio (2.0 *. Float.max v_out 1e-12)

let evaluate_raw proc ~state (x : Vec.t) =
  let ss = small_signal proc ~state x in
  let op1 = ss.ss_op1 and op2 = ss.ss_op2 in
  let analysis = Mna.ac ss.ckt ~freq:f0 in
  (* --- Gain: Norton drive of the source EMF (unit EMF → current 1/Rs
     into the input node). --- *)
  let sol = Mna.solve_injection analysis ~pos:ss.n_in ~neg:Mna.ground in
  let scale = 1.0 /. rsource in
  let v_out = Complex.norm (Mna.voltage sol ss.n_out) *. scale in
  let v_gs = Complex.norm (Mna.differential sol ss.n_g ss.n_s) *. scale in
  (* Gain referenced to the matched input voltage (EMF/2). *)
  let vg_db = Units.db_of_voltage_ratio (2.0 *. Float.max v_out 1e-12) in
  (* --- Noise figure. --- *)
  let input_source =
    Noise.resistor_source ~label:"Rs" ss.n_in Mna.ground ~r:rsource
  in
  let others =
    [ Noise.channel_source ~label:"M1" ~drain:ss.n_x ~source:ss.n_s op1;
      Noise.channel_source ~label:"M2" ~drain:ss.n_out ~source:ss.n_x op2;
      Noise.resistor_source ~label:"Rp" ss.n_out Mna.ground ~r:ss.ss_rp ]
  in
  let nf_db =
    Noise.noise_figure_db analysis ~out_pos:ss.n_out ~out_neg:Mna.ground
      ~input_source others
  in
  (* --- IIP3 from the input device's weak nonlinearity. --- *)
  let zs_mag = omega0 *. inductance_ls in
  let g3_eff =
    Nonlin.effective_gm3 ~gm:op1.Mosfet.gm ~gm2:op1.Mosfet.gm2
      ~gm3:op1.Mosfet.gm3 ~zs_mag
  in
  let iip3_dbm =
    Nonlin.iip3_dbm ~gm:op1.Mosfet.gm ~gm3:g3_eff ~zs_mag
      ~vgs_per_vsource:(Float.max v_gs 1e-9)
      ~rsource
  in
  { bias_current = ss.ss_id1; gm1 = op1.Mosfet.gm; nf_db; vg_db; iip3_dbm }

let gain_curve_of proc ~state x ~freqs =
  let ss = small_signal proc ~state x in
  Array.map (gain_db ss) (Mna.ac_sweep ss.ckt ~freqs)

(* The pre-sweep cost model: one netlist construction + one [Mna.ac]
   stamp/factorize per frequency point — what an M-point curve cost
   before {!Mna.ac_sweep} existed.  Kept as the bit-exactness oracle
   for {!gain_curve}. *)
let gain_curve_naive_of proc ~state x ~freqs =
  Array.map
    (fun f ->
      let ss = small_signal proc ~state x in
      gain_db ss (Mna.ac ss.ckt ~freq:f))
    freqs

let create () =
  let proc = Process.create device_specs in
  assert (Process.dim proc = n_process_variables);
  let evaluate ~state x =
    let r = evaluate_raw proc ~state x in
    [| r.nf_db; r.vg_db; r.iip3_dbm |]
  in
  {
    Testbench.name = "lna";
    process = proc;
    knobs;
    poi_names = [| "NF"; "VG"; "IIP3" |];
    poi_units = [| "dB"; "dB"; "dBm" |];
    evaluate;
    curve = Some (fun ~state x ~freqs -> gain_curve_of proc ~state x ~freqs);
    (* 2.72 h for 1120 transistor-level samples (paper, Table 1). *)
    seconds_per_sample = 2.72 *. 3600.0 /. 1120.0;
  }

let evaluate_internals tb ~state x = evaluate_raw tb.Testbench.process ~state x

let gain_curve tb ~state x ~freqs =
  gain_curve_of tb.Testbench.process ~state x ~freqs

let gain_curve_naive tb ~state x ~freqs =
  gain_curve_naive_of tb.Testbench.process ~state x ~freqs
