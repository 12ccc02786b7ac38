(** Monte-Carlo sample generation over a testbench.

    Produces the raw per-state sample sets the modeling flow consumes:
    an N×dim matrix of variation points and an N×P matrix of scalar
    PoI values (one column per {!Testbench.t} PoI) for every state.
    Samples are drawn independently per state, as in the paper's
    transistor-level Monte Carlo. *)

open Cbmf_linalg

type per_state = {
  xs : Mat.t;  (** N × dim variation samples *)
  ys : Mat.t;  (** N × n_pois performance values *)
}

type t = {
  testbench : Testbench.t;
  states : per_state array;
  n_per_state : int;
  dropped : int array;
      (** per-state count of samples dropped after exhausting retries
          (all zeros for a clean run) *)
}

val generate :
  ?max_retries:int ->
  ?diag:Cbmf_robust.Diag.t ->
  Testbench.t ->
  Cbmf_prob.Rng.t ->
  n_per_state:int ->
  t
(** [generate tb rng ~n_per_state] runs [n_per_state] samples for each
    state, each variation point drawn from its own standard-normal
    stream.

    Resilience: a sample whose simulation raises (e.g.
    {!Mna.Singular_circuit}) or produces a non-finite PoI is retried up
    to [max_retries] (default 3, capped at 14) times on a fresh
    variation point drawn from a sub-stream derived from the sample's
    global index via [Rng.derive] — recovery is therefore deterministic
    and independent of the domain count and execution order.  A sample
    that still fails is dropped; all states are then compacted to the
    worst state's surviving count so the result stays rectangular.
    Every failure and drop is recorded as a typed {!Cbmf_robust.Fault}
    in [diag] (or the ambient {!Cbmf_robust.Diag} recorder).  Honors
    the ["mc.sample"] fault-injection site.  With a clean simulator the
    output is bit-identical to the historical stream.  Raises
    [Cbmf_robust.Fault.Error (Sim_failure _)] if some state loses all
    its samples. *)

val total_samples : t -> int
(** Number of retained (state, sample) pairs — the unit of the cost
    model. *)

val total_dropped : t -> int
(** Total samples dropped across states after exhausting retries. *)

val poi_column : t -> state:int -> poi:int -> Vec.t
(** Response vector y_k for one PoI. *)

val truncate : t -> n:int -> t
(** First [n] samples of every state — lets one generation serve a
    whole sample-size sweep without re-simulating. *)

val simulation_hours : t -> float
