(** Pluggable simulator interface for the acquisition loop.

    The loop only ever needs five capabilities: draw candidate device
    vectors, evaluate the dictionary on one, price a sample, and
    simulate a chosen (state, x).  The synthetic ground-truth
    generator (exact recovery scoring) provides them; everything is
    deterministic from the seed with per-(round, candidate) derived
    streams, so loop runs are bit-identical at any domain count and
    nest as prefixes across budgets. *)

open Cbmf_linalg

type t = {
  name : string;
  n_states : int;  (** K *)
  n_basis : int;  (** M *)
  dim : int;  (** device-variable dimension d *)
  basis_row : Vec.t -> Vec.t;  (** dictionary row b(x), length M *)
  candidates : round:int -> n:int -> Vec.t array;
      (** deterministic per-round candidate pool; pools of different
          sizes nest as prefixes, rounds never share draws *)
  simulate : state:int -> index:int -> Vec.t -> float;
      (** one (possibly noisy) response; [index] addresses the noise
          stream so per-state draws nest across budgets *)
  cost : int -> float;
      (** per-sample simulation cost of a state, arbitrary units —
          the budget accounting's price column *)
}

val of_synthetic : Cbmf_circuit.Synthetic.t -> t
(** Ground-truth-backed simulator: candidates from
    {!Cbmf_circuit.Synthetic.candidate_xs}, responses from
    {!Cbmf_circuit.Synthetic.simulate}, unit cost. *)

val seed_dataset : t -> n0:int -> Cbmf_model.Dataset.t
(** The loop's rectangular warm-up grid: the first [n0] round-0
    candidates, each simulated at every state (indices 0..n0−1 per
    state) — the same shape the fixed-grid baseline consumes, and the
    shared prefix of every longer run.  Costs [n0·K] simulations. *)
