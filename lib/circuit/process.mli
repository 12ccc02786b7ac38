(** Statistical process-variation model.

    A circuit's variation space is a normalized vector [x] of iid
    standard-normal variables: first a fixed block of {e inter-die}
    (global) parameters shared by every device, then four {e local
    mismatch} parameters per device (threshold voltage, current factor,
    length, width), Pelgrom-scaled by device area, and finally optional
    extra groups (e.g. per-resistor mismatch).  The model maps
    normalized [x] into the physical deltas consumed by the device
    models. *)

open Cbmf_linalg

(** Inter-die (global) physical deltas. *)
type global = {
  dvth : float;  (** threshold shift, V *)
  dbeta_rel : float;  (** relative current-factor (µCox) shift *)
  dl_rel : float;  (** relative channel-length bias *)
  dw_rel : float;  (** relative width bias *)
  dcox_rel : float;  (** relative gate-capacitance shift *)
  drsheet_rel : float;  (** relative sheet-resistance shift *)
  dcpar_rel : float;  (** relative parasitic-capacitance shift *)
  dgamma_rel : float;  (** relative thermal-noise-coefficient shift *)
}

(** Per-device local mismatch (already in physical units). *)
type mismatch = {
  m_dvth : float;  (** V *)
  m_dbeta_rel : float;
  m_dl_rel : float;
  m_dw_rel : float;
}

(** Declared device: name and gate area (m²) for Pelgrom scaling. *)
type device_spec = { dev_name : string; dev_w : float; dev_l : float }

type t

val n_globals : int
(** Number of inter-die variables (8). *)

val params_per_device : int
(** Local variables per device (4). *)

val create :
  ?sigma_vth_global:float ->
  ?avt:float ->
  ?abeta:float ->
  ?n_resistor_vars:int ->
  device_spec array ->
  t
(** [create devices] builds the variation model.  [sigma_vth_global]
    (default 15 mV) is the inter-die Vth sigma; [avt] (default
    2.5 mV·µm) and [abeta] (default 1 %·µm) are Pelgrom coefficients;
    [n_resistor_vars] (default 0) appends that many standalone
    resistor-mismatch variables at the end of the vector. *)

val dim : t -> int
(** Total number of variation variables. *)

val n_devices : t -> int

val device_index : t -> string -> int
(** Raises [Not_found] for unknown names. *)

val global_of : t -> Vec.t -> global
(** Decode the inter-die block of a normalized sample. *)

val mismatch_of : t -> Vec.t -> int -> mismatch
(** [mismatch_of p x d] decodes device [d]'s local block, with
    Pelgrom area scaling from its declared geometry. *)

val resistor_var : t -> Vec.t -> int -> float
(** [resistor_var p x i] is the [i]-th standalone resistor-mismatch
    variable as a {e relative} resistance delta (sigma 1 %). *)

val n_resistor_vars : t -> int

val sample : t -> Cbmf_prob.Rng.t -> Vec.t
(** Draw a normalized variation vector (iid standard normal). *)

val variable_name : t -> int -> string
(** Human-readable name of coordinate [i] ("g:dvth", "M1:dvth",
    "r:3", …). *)
