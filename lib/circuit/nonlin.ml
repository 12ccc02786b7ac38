let effective_gm3 ~gm ~gm2 ~gm3 ~zs_mag =
  assert (zs_mag >= 0.0);
  gm3 -. (2.0 *. gm2 *. gm2 *. zs_mag /. (1.0 +. (gm *. zs_mag)))

let iip3_vamp ~gm ~gm3 =
  assert (gm > 0.0);
  if abs_float gm3 < 1e-30 then infinity
  else sqrt (4.0 /. 3.0 *. (gm /. abs_float gm3))

(* Loop-gain improvement (1 + gm·|Zs|) applied to the IM3-referred
   amplitude for a series-degenerated stage. *)
let degeneration_factor ~gm ~zs_mag =
  assert (zs_mag >= 0.0);
  1.0 +. (gm *. zs_mag)

let iip3_dbm ~gm ~gm3 ~zs_mag ~vgs_per_vsource ~rsource =
  assert (vgs_per_vsource > 0.0);
  let a_dev = iip3_vamp ~gm ~gm3 in
  let a_dev = a_dev *. degeneration_factor ~gm ~zs_mag in
  let a_src = a_dev /. vgs_per_vsource in
  (* Available power from a source with EMF amplitude a: a²/(8·Rs). *)
  Units.dbm_of_watts (a_src *. a_src /. (8.0 *. rsource))

let p1db_from_iip3_dbm iip3 = iip3 -. 9.6383

let compression_limited_p1db_dbm ~vlimit ~gain_v ~rsource =
  assert (vlimit > 0.0 && gain_v > 0.0);
  (* At the 1 dB point the fundamental has dropped by 0.89×; the input
     amplitude then satisfies 0.89·gain·a = vlimit. *)
  let a = vlimit /. (0.89 *. gain_v) in
  Units.dbm_of_watts (a *. a /. (8.0 *. rsource))
