(* Shared test utilities.

   The seeded corpus (deterministic random inputs) and the FNV-1a
   bit-pattern hashes live in [Cbmf_testkit.Seeded] so the smoke
   executables and [bench/e2e] share one implementation; this
   module re-exports them alongside the Alcotest wrappers. *)

module Seeded = Cbmf_testkit.Seeded

let check_float ?(tol = 1e-9) name expected actual =
  Alcotest.(check (float tol)) name expected actual

let check_true name b = Alcotest.(check bool) name true b

let check_int name expected actual = Alcotest.(check int) name expected actual

let check_raises_invalid name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument _ -> ()

let case name f = Alcotest.test_case name `Quick f

let slow_case name f = Alcotest.test_case name `Slow f

let qcase ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name gen prop)

(* Deterministic random matrices/vectors for tests (one shared stream,
   same historical seed, so existing suites keep their exact inputs). *)
let rng = Seeded.default_rng ()

let random_vec n = Seeded.random_vec rng n

let random_mat r c = Seeded.random_mat rng r c

let random_spd n = Seeded.random_spd rng n

(* FNV-1a over IEEE-754 bit patterns: any single-ulp difference changes
   the hash, so these make exact determinism goldens. *)
let hash_floats_acc = Seeded.hash_floats_acc

let hash_floats = Seeded.hash_floats

let hash_mats = Seeded.hash_mats

let montecarlo_lna_seed42_n3_hash = Seeded.montecarlo_lna_seed42_n3_hash

(* Bit-for-bit equality of two float arrays (IEEE-754 patterns, so
   -0.0 differs from 0.0). *)
let check_bits name (a : float array) (b : float array) =
  if
    Array.length a <> Array.length b
    || not
         (Array.for_all2
            (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
            a b)
  then Alcotest.failf "%s: not bit-identical" name

let mat_close ?(tol = 1e-8) name a b =
  let open Cbmf_linalg in
  if not (Mat.approx_equal ~tol a b) then
    Alcotest.failf "%s: matrices differ (max delta %g)" name
      (Mat.max_abs (Mat.sub a b))

let vec_close ?(tol = 1e-8) name a b =
  let open Cbmf_linalg in
  if not (Vec.approx_equal ~tol a b) then
    Alcotest.failf "%s: vectors differ (max delta %g)" name
      (Vec.norm_inf (Vec.sub a b))
