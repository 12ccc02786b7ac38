(** Uniform interface between a tunable circuit and the modeling flow.

    A testbench knows its variation space, its knob states, its
    performances of interest, and how to "simulate" one sample: map a
    normalized variation vector to the PoI values of one state, one
    scalar per PoI at the circuit's operating point (2.4 GHz for the
    paper's LNA and mixer).  It also carries the cost model used for
    the paper's cost columns. *)

open Cbmf_linalg

type t = {
  name : string;
  process : Process.t;
  knobs : Knob.t array;
  poi_names : string array;
  poi_units : string array;
  evaluate : state:int -> Vec.t -> float array;
      (** All PoIs of one state at one variation sample.  Deterministic
          in its inputs. *)
  seconds_per_sample : float;
      (** Modeled transistor-level simulation cost per sample (one
          state, one variation point) on the paper's reference
          server. *)
}

val dim : t -> int
(** Number of variation variables. *)

val n_states : t -> int

val n_pois : t -> int

val poi_index : t -> string -> int
(** Raises [Not_found] for unknown PoI names. *)

val evaluate_poi : t -> state:int -> poi:int -> Vec.t -> float

val simulation_cost_hours : t -> n_samples:int -> float
(** Modeled cost of [n_samples] transistor-level simulations, hours. *)
