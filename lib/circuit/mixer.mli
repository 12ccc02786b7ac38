(** Tunable 2.4 GHz down-conversion mixer (Gilbert cell).

    Mirrors the paper's second example: 1303 process variables
    (8 inter-die + 4 × 321 devices + 11 resistor-mismatch variables)
    and 32 states implemented as two switched (R-DAC) load resistors.
    PoIs: SSB noise figure (dB), conversion voltage gain (dB) and
    input-referred 1 dB compression point (dBm).

    A commutating mixer is periodically time-varying, so instead of an
    LTI MNA solve the testbench uses the standard behavioural
    conversion-gain/noise equations of the Gilbert cell, with every
    coefficient (gm, γ, overdrives, capacitances) taken from the
    process-perturbed device model — the same physical pathway from
    variation vector to performance as the LNA, without the LTI
    restriction. *)

val n_process_variables : int
(** 1303, as in the paper. *)

val n_states : int
(** 32. *)

val create : unit -> Testbench.t

type internals = {
  tail_current : float;
  gm_rf : float;
  load_ohms : float;  (** effective single-ended load of this state *)
  conversion_gain : float;  (** linear, from RF gate voltage to IF out *)
  nf_db : float;
  vg_db : float;
  i1dbcp_dbm : float;
}

val evaluate_internals : Testbench.t -> state:int -> Cbmf_linalg.Vec.t -> internals
