type params = {
  vth0 : float;
  kp : float;
  n_slope : float;
  theta : float;
  lambda_ch : float;
  cox_area : float;
  cov_width : float;
  gamma_noise : float;
}

let nmos_32nm =
  {
    vth0 = 0.35;
    kp = 450e-6;
    n_slope = 1.35;
    theta = 0.9;
    lambda_ch = 0.15;
    cox_area = 0.02;
    cov_width = 0.3e-9;
    gamma_noise = 1.1;
  }

type geometry = { w : float; l : float }

type op_point = {
  id : float;
  vgs : float;
  vov : float;
  gm : float;
  gm2 : float;
  gm3 : float;
  gds : float;
  cgs : float;
  cgd : float;
  gamma : float;
}

type instance = {
  p : params;
  w_eff : float;
  l_eff : float;
  vth : float;
  beta : float; (* kp_eff · w_eff / l_eff *)
  cox_eff : float;
  gamma_eff : float;
}

let zero_global =
  {
    Process.dvth = 0.0;
    dbeta_rel = 0.0;
    dl_rel = 0.0;
    dw_rel = 0.0;
    dcox_rel = 0.0;
    drsheet_rel = 0.0;
    dcpar_rel = 0.0;
    dgamma_rel = 0.0;
  }

let zero_mismatch =
  { Process.m_dvth = 0.0; m_dbeta_rel = 0.0; m_dl_rel = 0.0; m_dw_rel = 0.0 }

let instantiate p (g : geometry) (gl : Process.global) (mm : Process.mismatch)
    =
  assert (g.w > 0.0 && g.l > 0.0);
  let w_eff = g.w *. (1.0 +. gl.Process.dw_rel +. mm.Process.m_dw_rel) in
  let l_eff = g.l *. (1.0 +. gl.Process.dl_rel +. mm.Process.m_dl_rel) in
  let vth = p.vth0 +. gl.Process.dvth +. mm.Process.m_dvth in
  let kp_eff =
    p.kp *. (1.0 +. gl.Process.dbeta_rel +. mm.Process.m_dbeta_rel)
  in
  {
    p;
    w_eff;
    l_eff;
    vth;
    beta = kp_eff *. w_eff /. l_eff;
    cox_eff = p.cox_area *. (1.0 +. gl.Process.dcox_rel);
    gamma_eff = p.gamma_noise *. (1.0 +. gl.Process.dgamma_rel);
  }

let nominal p g = instantiate p g zero_global zero_mismatch

let ut = Units.thermal_voltage

(* Numerically-safe softplus. *)
let softplus x = if x > 40.0 then x else log1p (exp x)

let sigmoid x =
  if x > 40.0 then 1.0
  else if x < -40.0 then exp x
  else 1.0 /. (1.0 +. exp (-.x))

let overdrive inst ~vgs =
  let a = 2.0 *. inst.p.n_slope *. ut in
  a *. softplus ((vgs -. inst.vth) /. a)

let drain_current inst ~vgs =
  let vov = overdrive inst ~vgs in
  0.5 *. inst.beta *. vov *. vov /. (1.0 +. (inst.p.theta *. vov))

let transconductance inst ~vgs =
  let a = 2.0 *. inst.p.n_slope *. ut in
  let vov = overdrive inst ~vgs in
  let dvov = sigmoid ((vgs -. inst.vth) /. a) in
  let den = 1.0 +. (inst.p.theta *. vov) in
  (* d/dvov of ½β·vov²/(1+θ·vov), times dvov/dvgs. *)
  0.5 *. inst.beta
  *. (vov *. (2.0 +. (inst.p.theta *. vov)) /. (den *. den))
  *. dvov

let op_at_vgs inst ~vgs =
  let id = drain_current inst ~vgs in
  let gm = transconductance inst ~vgs in
  (* gm2/gm3 by central differences on the analytic gm: h = 1 mV keeps
     truncation and roundoff balanced for these magnitudes. *)
  let h = 1e-3 in
  let gm_p = transconductance inst ~vgs:(vgs +. h) in
  let gm_m = transconductance inst ~vgs:(vgs -. h) in
  let gm2 = (gm_p -. gm_m) /. (2.0 *. h) in
  let gm3 = (gm_p -. (2.0 *. gm) +. gm_m) /. (h *. h) in
  let vov = overdrive inst ~vgs in
  let cgs =
    ((2.0 /. 3.0) *. inst.cox_eff *. inst.w_eff *. inst.l_eff)
    +. (inst.p.cov_width *. inst.w_eff)
  in
  let cgd = inst.p.cov_width *. inst.w_eff in
  {
    id;
    vgs;
    vov;
    gm;
    gm2;
    gm3;
    gds = (inst.p.lambda_ch *. id) +. 1e-9;
    cgs;
    cgd;
    gamma = inst.gamma_eff;
  }

let op_at_current inst ~id =
  assert (id > 0.0);
  (* Newton on vgs, seeded by the strong-inversion estimate. *)
  let guess = inst.vth +. sqrt (2.0 *. id /. inst.beta) in
  let rec go vgs iter =
    let f = drain_current inst ~vgs -. id in
    if abs_float f <= 1e-12 *. id || iter >= 80 then vgs
    else begin
      let gm = transconductance inst ~vgs in
      let step = f /. Float.max gm 1e-12 in
      (* Damp big steps to stay within the model's sane region. *)
      let step = Float.max (-0.2) (Float.min 0.2 step) in
      go (vgs -. step) (iter + 1)
    end
  in
  let vgs = go guess 0 in
  op_at_vgs inst ~vgs

let thermal_noise_psd (op : op_point) = Units.four_kt *. op.gamma *. op.gm

(* Flicker coefficient: representative 32 nm value. *)
let kf = 1e-25

let flicker_noise_psd inst (op : op_point) ~freq =
  assert (freq > 0.0);
  let cox_wl = inst.cox_eff *. inst.w_eff *. inst.l_eff in
  kf *. op.gm *. op.gm /. (Float.max cox_wl 1e-20 *. freq)
