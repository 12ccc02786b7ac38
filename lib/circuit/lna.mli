(** Tunable 2.4 GHz inductively-degenerated cascode LNA.

    Mirrors the paper's first example: 1264 process variables
    (8 inter-die + 4 × 314 devices) and 32 knob states implemented as a
    tunable bias-current mirror.  PoIs: noise figure (dB), voltage gain
    (dB) and IIP3 (dBm).

    Gain and NF come from a small-signal MNA + noise analysis of the
    cascode core at 2.4 GHz; IIP3 from the weak-nonlinearity analysis
    of the input device including inductive-degeneration feedback.
    Periphery devices (mirror legs, bias chain, decap/ESD) enter
    through physically-motivated aggregates: mirror-ratio error, bias
    reference error, and output-tank loading. *)

val n_process_variables : int
(** 1264, as in the paper. *)

val n_states : int
(** 32. *)

val create : unit -> Testbench.t

(** {1 Introspection for tests and examples} *)

type internals = {
  bias_current : float;  (** mirrored drain current of the input device *)
  gm1 : float;
  nf_db : float;
  vg_db : float;
  iip3_dbm : float;
}

val evaluate_internals : Testbench.t -> state:int -> Cbmf_linalg.Vec.t -> internals
(** Same computation as [evaluate], exposing intermediates.  Only valid
    on testbenches built by {!create}. *)
