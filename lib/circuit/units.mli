(** Physical constants and RF unit conversions. *)

val boltzmann : float
(** k, J/K. *)

val temperature : float
(** Nominal analysis temperature, K (300). *)

val kt : float
(** k·T at the nominal temperature. *)

val four_kt : float

val thermal_voltage : float
(** kT/q at the nominal temperature (≈25.9 mV). *)

val electron_charge : float

val db_of_power_ratio : float -> float
(** 10·log10. *)

val db_of_voltage_ratio : float -> float
(** 20·log10 of the magnitude. *)

val power_ratio_of_db : float -> float

val voltage_ratio_of_db : float -> float

val dbm_of_watts : float -> float

val watts_of_dbm : float -> float

val dbm_of_vamp : float -> r:float -> float
(** Available/delivered power of a sine of amplitude [v] across [r],
    in dBm: P = v²/(2r). *)
