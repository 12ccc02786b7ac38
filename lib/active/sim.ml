open Cbmf_linalg
module Term = Cbmf_basis.Term

type t = {
  name : string;
  n_states : int;
  n_basis : int;
  dim : int;
  basis_row : Vec.t -> Vec.t;
  candidates : round:int -> n:int -> Vec.t array;
  simulate : state:int -> index:int -> Vec.t -> float;
  cost : int -> float;
}

let of_synthetic (gt : Cbmf_circuit.Synthetic.t) =
  let spec = gt.Cbmf_circuit.Synthetic.spec in
  let terms = gt.Cbmf_circuit.Synthetic.terms in
  let m = spec.Cbmf_circuit.Synthetic.m in
  {
    name =
      Printf.sprintf "synthetic-k%d-m%d" spec.Cbmf_circuit.Synthetic.k m;
    n_states = spec.Cbmf_circuit.Synthetic.k;
    n_basis = m;
    dim = spec.Cbmf_circuit.Synthetic.d;
    basis_row =
      (fun x -> Array.init m (fun j -> Term.eval terms.(j) x));
    candidates =
      (fun ~round ~n -> Cbmf_circuit.Synthetic.candidate_xs gt ~round ~n);
    simulate =
      (fun ~state ~index x ->
        Cbmf_circuit.Synthetic.simulate gt ~state ~index x);
    cost = (fun _ -> 1.0);
  }

(* The loop's seed grid: [n0] shared candidate draws (round 0),
   simulated at every state — the same rectangular N-per-state shape
   the fixed-grid baseline trains on, and the prefix every longer run
   shares.  Returns the dataset plus the per-state next-free simulate
   index (= n0 everywhere). *)
let seed_dataset sim ~n0 =
  if n0 < 1 then invalid_arg "Sim.seed_dataset: n0 must be >= 1";
  let xs = sim.candidates ~round:0 ~n:n0 in
  let rows = Array.map sim.basis_row xs in
  let m = sim.n_basis in
  let design =
    Array.init sim.n_states (fun _ ->
        let flat = Array.make (n0 * m) 0.0 in
        Array.iteri (fun i r -> Array.blit r 0 flat (i * m) m) rows;
        Mat.unsafe_of_flat ~rows:n0 ~cols:m flat)
  in
  let response =
    Array.init sim.n_states (fun s ->
        Array.init n0 (fun i -> sim.simulate ~state:s ~index:i xs.(i)))
  in
  Cbmf_model.Dataset.create ~design ~response
