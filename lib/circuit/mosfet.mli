(** Compact MOSFET model for behavioral RF simulation.

    The large-signal current uses a softplus-smoothed overdrive with
    first-order mobility reduction:

    {v
      vov(vgs)  = 2·n·Ut · ln(1 + exp((vgs − vth) / (2·n·Ut)))
      id(vgs)   = ½·β · vov² / (1 + θ·vov)
    v}

    which is smooth from weak to strong inversion, has an analytic gm,
    and a physically-shaped gm3 (sign change near moderate inversion —
    the mechanism behind bias-dependent IIP3 in real devices).  Process
    variations enter through [Process.global] and [Process.mismatch]. *)

type params = {
  vth0 : float;  (** nominal threshold, V *)
  kp : float;  (** µ₀·Cox process transconductance, A/V² *)
  n_slope : float;  (** subthreshold slope factor *)
  theta : float;  (** mobility-reduction coefficient, 1/V *)
  lambda_ch : float;  (** channel-length modulation, 1/V *)
  cox_area : float;  (** gate capacitance per area, F/m² *)
  cov_width : float;  (** overlap capacitance per width, F/m *)
  gamma_noise : float;  (** channel thermal-noise coefficient *)
}

val nmos_32nm : params
(** Representative 32 nm SOI NMOS parameter set. *)

type geometry = { w : float; l : float }

(** Small-signal operating point. *)
type op_point = {
  id : float;  (** drain current, A *)
  vgs : float;
  vov : float;  (** smoothed overdrive, V *)
  gm : float;  (** S *)
  gm2 : float;  (** A/V² *)
  gm3 : float;  (** A/V³ *)
  gds : float;  (** S *)
  cgs : float;  (** F *)
  cgd : float;  (** F *)
  gamma : float;  (** effective noise coefficient *)
}

type instance
(** A device with its geometry and the process deltas applied. *)

val instantiate :
  params -> geometry -> Process.global -> Process.mismatch -> instance

val nominal : params -> geometry -> instance
(** Instance with all variations zero. *)

val drain_current : instance -> vgs:float -> float

val transconductance : instance -> vgs:float -> float
(** Analytic ∂id/∂vgs. *)

val op_at_vgs : instance -> vgs:float -> op_point

val op_at_current : instance -> id:float -> op_point
(** Solve the bias point for a forced drain current (Newton with an
    analytic derivative; the current must be positive). *)

val thermal_noise_psd : op_point -> float
(** Channel thermal noise current PSD, A²/Hz: 4kT·γ·gm. *)

val flicker_noise_psd : instance -> op_point -> freq:float -> float
(** Flicker noise current PSD at [freq] (negligible at RF; exposed for
    completeness and tests). *)
