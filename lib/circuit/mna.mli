(** Complex-valued modified nodal analysis for small-signal AC and
    noise simulation.

    All elements are admittance-stamped (resistors, capacitors,
    inductors, VCCS); independent excitations are current injections,
    so a Thévenin source must be Norton-transformed by the caller (the
    testbenches do).  Node [0] is ground.

    Element constructors validate their inputs and raise
    [Invalid_argument] (naming the offending node or value) on
    out-of-range nodes, negative/non-finite R, C, L or conductances —
    validation that survives [-noassert] release builds.  {!ac} honors
    the ["mna.solve"] fault-injection site (see
    {!Cbmf_robust.Inject}). *)

type node = int

type t
(** Mutable netlist builder. *)

val create : unit -> t

val ground : node

val fresh_node : t -> string -> node
(** Allocate a named node. *)

val node_count : t -> int
(** Number of nodes including ground. *)

val node_name : t -> node -> string

val resistor : t -> node -> node -> float -> unit
(** [resistor ckt a b r] with [r > 0] ohms. *)

val conductance : t -> node -> node -> float -> unit

val capacitor : t -> node -> node -> float -> unit

val inductor : t -> node -> node -> float -> unit
(** Note: inductors are admittance-stamped (1/jωL), so the analysis
    frequency must be nonzero. *)

val vccs :
  t -> out_pos:node -> out_neg:node -> ctrl_pos:node -> ctrl_neg:node ->
  gm:float -> unit
(** Current [gm·(V(ctrl_pos) − V(ctrl_neg))] flowing out of [out_pos]
    into [out_neg] — the standard transconductance stamp. *)

(** {1 AC analysis} *)

type analysis
(** A factorized system at one frequency; solves are O(n²) each. *)

exception Singular_circuit
(** Raised when the nodal matrix is singular (e.g. a floating node). *)

val ac : t -> freq:float -> analysis
(** Build and factorize the nodal matrix at [freq] (Hz, > 0). *)

val solve_injection : analysis -> pos:node -> neg:node -> Complex.t array
(** Node voltages (index 0 = ground = 0V) for a unit AC current
    injected into [pos] and drawn from [neg]. *)

val voltage : Complex.t array -> node -> Complex.t
(** Convenience accessor into a solution. *)

val differential : Complex.t array -> node -> node -> Complex.t
