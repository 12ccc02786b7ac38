open Cbmf_linalg
open Cbmf_model

type t = {
  mutable data : Dataset.t;
  n0 : int;
  mutable appended : int;
}

let create (d : Dataset.t) = { data = d; n0 = d.Dataset.n_samples; appended = 0 }

let dataset t = t.data

let n0 t = t.n0

let appended t = t.appended

let n_per_state t = t.data.Dataset.n_samples

let append t ~(rows : Vec.t array) ~(ys : float array) =
  t.data <- Dataset.append_row t.data ~rows ~ys;
  t.appended <- t.appended + 1
