open Cbmf_linalg

type t = {
  name : string;
  process : Process.t;
  knobs : Knob.t array;
  poi_names : string array;
  poi_units : string array;
  evaluate : state:int -> Vec.t -> float array;
  seconds_per_sample : float;
}

let dim tb = Process.dim tb.process

let n_states tb = Array.length tb.knobs

let n_pois tb = Array.length tb.poi_names

let poi_index tb name =
  let rec go i =
    if i >= Array.length tb.poi_names then raise Not_found
    else if String.equal tb.poi_names.(i) name then i
    else go (i + 1)
  in
  go 0

let evaluate_poi tb ~state ~poi x =
  assert (state >= 0 && state < n_states tb);
  assert (poi >= 0 && poi < n_pois tb);
  (tb.evaluate ~state x).(poi)

let simulation_cost_hours tb ~n_samples =
  assert (n_samples >= 0);
  float_of_int n_samples *. tb.seconds_per_sample /. 3600.0
