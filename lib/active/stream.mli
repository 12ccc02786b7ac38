(** The loop's growing dataset.

    A thin stateful wrapper over {!Cbmf_model.Dataset.append_row}: one
    acquisition round appends exactly one (row, response) per state, so
    the dataset stays rectangular and every EM resync can consume it
    directly. *)

open Cbmf_linalg
open Cbmf_model

type t

val create : Dataset.t -> t
(** Wrap the seed dataset. *)

val dataset : t -> Dataset.t
(** The current dataset — a fresh immutable value after every append. *)

val append : t -> rows:Vec.t array -> ys:float array -> unit
(** One new sample per state: [rows.(k)] is state [k]'s basis row,
    [ys.(k)] its simulated response. *)

val n0 : t -> int
(** Seed rows per state. *)

val appended : t -> int
(** Rounds appended since creation. *)

val n_per_state : t -> int
(** Current rows per state (= [n0 + appended]). *)
