let boltzmann = 1.380649e-23

let temperature = 300.0

let kt = boltzmann *. temperature

let four_kt = 4.0 *. kt

let electron_charge = 1.602176634e-19

let thermal_voltage = kt /. electron_charge

let db_of_power_ratio r =
  assert (r > 0.0);
  10.0 *. log10 r

let db_of_voltage_ratio r =
  assert (r > 0.0);
  20.0 *. log10 r

let power_ratio_of_db db = 10.0 ** (db /. 10.0)

let voltage_ratio_of_db db = 10.0 ** (db /. 20.0)

let dbm_of_watts w =
  assert (w > 0.0);
  10.0 *. log10 (w /. 1e-3)

let watts_of_dbm dbm = 1e-3 *. (10.0 ** (dbm /. 10.0))

let dbm_of_vamp v ~r =
  assert (r > 0.0);
  dbm_of_watts (v *. v /. (2.0 *. r))
