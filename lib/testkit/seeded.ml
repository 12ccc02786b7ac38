open Cbmf_linalg

let fnv_offset = 0xCBF29CE484222325L

let fnv_prime = 0x100000001B3L

let hash_floats_acc acc (xs : float array) =
  Array.fold_left
    (fun acc x -> Int64.mul (Int64.logxor acc (Int64.bits_of_float x)) fnv_prime)
    acc xs

let hash_floats xs = hash_floats_acc fnv_offset xs

let hash_mats (ms : Mat.t array) =
  Array.fold_left (fun acc (m : Mat.t) -> hash_floats_acc acc m.Mat.data)
    fnv_offset ms

let default_seed = 20260704

let default_rng () = Cbmf_prob.Rng.create default_seed

let random_vec rng n = Cbmf_prob.Rng.gaussian_vector rng n

let random_mat rng r c = Mat.init r c (fun _ _ -> Cbmf_prob.Rng.gaussian rng)

let random_spd rng n =
  let a = random_mat rng n n in
  let g = Mat.gram a in
  Mat.add_diag_inplace g (float_of_int n *. 0.5);
  Mat.symmetrize_inplace g;
  g

let montecarlo_lna_seed42_n3_hash = -1015624154674765274L
