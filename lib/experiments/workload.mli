(** Experiment workloads: a circuit testbench + basis dictionary +
    Monte-Carlo data, packaged for the modeling experiments.

    One Monte-Carlo generation at the maximum sample budget serves a
    whole sample-size sweep (smaller budgets are prefixes), exactly as
    one would reuse stored transistor-level simulations. *)

open Cbmf_circuit
open Cbmf_model

type t = {
  name : string;
  testbench : Testbench.t;
  dictionary : Cbmf_basis.Dictionary.t;
}

val lna : unit -> t
(** Paper §4.1: tunable LNA, 1264 variables, linear dictionary
    (M = 1265). *)

val mixer : unit -> t
(** Paper §4.2: tunable mixer, 1303 variables, linear dictionary
    (M = 1304). *)

type data = {
  workload : t;
  train_pool : Montecarlo.t;  (** max-budget training samples *)
  test : Montecarlo.t;  (** held-out testing samples *)
}

val generate :
  t -> seed:int -> n_train_max:int -> n_test_per_state:int -> data
(** Run the Monte-Carlo "simulations" once.  The paper uses 50 testing
    samples per state. *)

val train_dataset : data -> poi:int -> n_per_state:int -> Dataset.t
(** Design/response dataset for the first [n_per_state] training
    samples of every state. *)

val test_dataset : data -> poi:int -> Dataset.t

val poi_name : t -> int -> string
