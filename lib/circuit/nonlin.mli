(** Weakly-nonlinear distortion estimates.

    Linear MNA cannot produce IIP3/P1dB, so these metrics come from the
    classic power-series analysis of the dominant transconductor:
    [i = gm·v + gm2·v² + gm3·v³].  Series (inductive/resistive)
    degeneration improves IM3 by the loop-gain factor; the final
    figures are referred to the source through the measured linear
    transfer. *)

val effective_gm3 : gm:float -> gm2:float -> gm3:float -> zs_mag:float -> float
(** Third-order coefficient including the second-order interaction
    through the source impedance, [gm3 − 2·gm2²·Zs/(1 + gm·Zs)].  The
    interaction term prevents the unphysical IM3 null where the bare
    [gm3] crosses zero. *)

val iip3_vamp : gm:float -> gm3:float -> float
(** Input-referred third-order intercept, as the amplitude (V) of the
    control voltage: sqrt(4/3·|gm/gm3|).  Requires [gm > 0]; returns
    [infinity] for vanishing [gm3] (perfectly linear device). *)

val iip3_dbm :
  gm:float ->
  gm3:float ->
  zs_mag:float ->
  vgs_per_vsource:float ->
  rsource:float ->
  float
(** Source-referred IIP3 in dBm: the device-level intercept amplitude,
    improved by degeneration, divided by the linear transfer from
    source EMF to the device control voltage, converted to available
    power at [rsource]. *)

val p1db_from_iip3_dbm : float -> float
(** The classic 9.64 dB back-off. *)

val compression_limited_p1db_dbm :
  vlimit:float -> gain_v:float -> rsource:float -> float
(** Input power at which the output swing reaches [vlimit] (1 dB point
    of a hard-limiting stage, using the 0.89 empirical swing factor),
    for small-signal voltage gain [gain_v] from source EMF to output. *)
