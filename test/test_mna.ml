open Cbmf_circuit
open Helpers

(* Voltage divider: unit current into two series resistors. *)
let test_resistor_divider () =
  let ckt = Mna.create () in
  let a = Mna.fresh_node ckt "a" in
  let b = Mna.fresh_node ckt "b" in
  Mna.resistor ckt a b 100.0;
  Mna.resistor ckt b Mna.ground 50.0;
  let an = Mna.ac ckt ~freq:1e6 in
  let sol = Mna.solve_injection an ~pos:a ~neg:Mna.ground in
  (* 1 A through 150 Ω total: V(a) = 150, V(b) = 50. *)
  check_float ~tol:1e-9 "V(a)" 150.0 (Complex.norm (Mna.voltage sol a));
  check_float ~tol:1e-9 "V(b)" 50.0 (Complex.norm (Mna.voltage sol b));
  check_float "ground" 0.0 (Complex.norm (Mna.voltage sol Mna.ground))

let test_capacitor_impedance () =
  let ckt = Mna.create () in
  let a = Mna.fresh_node ckt "a" in
  let c = 1e-9 in
  Mna.capacitor ckt a Mna.ground c;
  let f = 1e6 in
  let an = Mna.ac ckt ~freq:f in
  let sol = Mna.solve_injection an ~pos:a ~neg:Mna.ground in
  let expected = 1.0 /. (2.0 *. Float.pi *. f *. c) in
  let v = Mna.voltage sol a in
  check_float ~tol:1e-6 "|Z_C|" expected (Complex.norm v);
  (* Current leads voltage: V = I/(jωC) has phase −90°. *)
  check_true "capacitive phase" (v.Complex.im < 0.0 && abs_float v.Complex.re < 1e-9)

let test_inductor_impedance () =
  let ckt = Mna.create () in
  let a = Mna.fresh_node ckt "a" in
  let l = 1e-6 in
  Mna.inductor ckt a Mna.ground l;
  let f = 1e7 in
  let an = Mna.ac ckt ~freq:f in
  let sol = Mna.solve_injection an ~pos:a ~neg:Mna.ground in
  let v = Mna.voltage sol a in
  check_float ~tol:1e-6 "|Z_L|" (2.0 *. Float.pi *. f *. l) (Complex.norm v);
  check_true "inductive phase" (v.Complex.im > 0.0)

let test_lc_resonance () =
  (* Parallel RLC driven by a current source peaks at f0 with |Z| = R. *)
  let l = 10e-9 and c = 1e-12 and r = 500.0 in
  let f0 = 1.0 /. (2.0 *. Float.pi *. sqrt (l *. c)) in
  let z_at f =
    let ckt = Mna.create () in
    let a = Mna.fresh_node ckt "a" in
    Mna.inductor ckt a Mna.ground l;
    Mna.capacitor ckt a Mna.ground c;
    Mna.resistor ckt a Mna.ground r;
    let sol = Mna.solve_injection (Mna.ac ckt ~freq:f) ~pos:a ~neg:Mna.ground in
    Complex.norm (Mna.voltage sol a)
  in
  check_float ~tol:1e-3 "|Z| = R at resonance" r (z_at f0);
  check_true "below resonance smaller" (z_at (0.5 *. f0) < 0.5 *. r);
  check_true "above resonance smaller" (z_at (2.0 *. f0) < 0.5 *. r)

let test_vccs_amplifier () =
  (* Common-source stage: gm = 10 mS into RL = 1 kΩ → gain −10. *)
  let ckt = Mna.create () in
  let g = Mna.fresh_node ckt "g" in
  let d = Mna.fresh_node ckt "d" in
  Mna.resistor ckt g Mna.ground 1e6;
  (* bias the controlling node *)
  Mna.resistor ckt d Mna.ground 1e3;
  Mna.vccs ckt ~out_pos:d ~out_neg:Mna.ground ~ctrl_pos:g ~ctrl_neg:Mna.ground
    ~gm:0.01;
  let an = Mna.ac ckt ~freq:1e6 in
  (* 1 µA into the gate node: V(g) = 1 V; output = −gm·V(g)·RL = −10 V. *)
  let sol = Mna.solve_injection an ~pos:g ~neg:Mna.ground in
  let vg = Mna.voltage sol g and vd = Mna.voltage sol d in
  check_float ~tol:1e-6 "gain magnitude" 10.0
    (Complex.norm vd /. Complex.norm vg *. 1e6 /. 1e6);
  check_true "inverting" (vd.Complex.re < 0.0)

let test_floating_node_singular () =
  let ckt = Mna.create () in
  let a = Mna.fresh_node ckt "a" in
  let b = Mna.fresh_node ckt "b" in
  Mna.resistor ckt a Mna.ground 100.0;
  ignore b;
  (* b touches nothing → singular nodal matrix *)
  match Mna.ac ckt ~freq:1e6 with
  | _ -> Alcotest.fail "expected Singular_circuit"
  | exception Mna.Singular_circuit -> ()

let test_node_names () =
  let ckt = Mna.create () in
  let a = Mna.fresh_node ckt "alpha" in
  let b = Mna.fresh_node ckt "beta" in
  check_true "gnd" (String.equal (Mna.node_name ckt Mna.ground) "gnd");
  check_true "alpha" (String.equal (Mna.node_name ckt a) "alpha");
  check_true "beta" (String.equal (Mna.node_name ckt b) "beta");
  check_int "count" 3 (Mna.node_count ckt)

let test_ac_validation () =
  let ckt = Mna.create () in
  let a = Mna.fresh_node ckt "a" in
  Mna.resistor ckt a Mna.ground 50.0;
  List.iter
    (fun freq ->
      check_raises_invalid (Printf.sprintf "frequency %g" freq) (fun () ->
          Mna.ac ckt ~freq))
    [ -0.0; -1.0e9; Float.nan; Float.infinity; Float.neg_infinity ];
  check_raises_invalid "ground-only circuit" (fun () ->
      Mna.ac (Mna.create ()) ~freq:1.0e9);
  check_raises_invalid "zero resistance" (fun () ->
      Mna.resistor ckt a Mna.ground 0.0);
  check_raises_invalid "zero inductance" (fun () ->
      Mna.inductor ckt a Mna.ground 0.0);
  check_raises_invalid "infinite capacitance" (fun () ->
      Mna.capacitor ckt a Mna.ground Float.infinity);
  check_raises_invalid "node_name past the last node" (fun () ->
      Mna.node_name ckt 2);
  (* Zero conductance and capacitance are legal and stamp nothing. *)
  Mna.conductance ckt a Mna.ground 0.0;
  Mna.capacitor ckt a Mna.ground 0.0;
  let sol = Mna.solve_injection (Mna.ac ckt ~freq:1.0e9) ~pos:a ~neg:Mna.ground in
  check_float ~tol:1e-12 "rejected and zero elements change nothing" 50.0
    (Complex.norm (Mna.voltage sol a))

let test_series_rc_across_frequencies () =
  (* a —R— b —C— gnd: Z_in = R + 1/(jωC), and V(b) = 1/(jωC). *)
  let r = 330.0 and c = 2.2e-12 in
  let ckt = Mna.create () in
  let a = Mna.fresh_node ckt "a" in
  let b = Mna.fresh_node ckt "b" in
  Mna.resistor ckt a b r;
  Mna.capacitor ckt b Mna.ground c;
  List.iter
    (fun freq ->
      let zc = -1.0 /. (2.0 *. Float.pi *. freq *. c) in
      let tol = 1e-9 *. Float.max r (abs_float zc) in
      let an = Mna.ac ckt ~freq in
      let at_a = Mna.solve_injection an ~pos:a ~neg:Mna.ground in
      let va = Mna.voltage at_a a and vb = Mna.voltage at_a b in
      let label what = Printf.sprintf "%s at %.0e Hz" what freq in
      check_float ~tol (label "Re Z_in") r va.Complex.re;
      check_float ~tol (label "Im Z_in") zc va.Complex.im;
      check_float ~tol (label "Re V(b)") 0.0 vb.Complex.re;
      check_float ~tol (label "Im V(b)") zc vb.Complex.im;
      (* The same factorization serves a second injection: current into
         b never crosses R, so V(a) = V(b). *)
      let at_b = Mna.solve_injection an ~pos:b ~neg:Mna.ground in
      check_float ~tol (label "no drop across R")
        0.0 (Complex.norm (Mna.differential at_b a b)))
    [ 1.0e6; 1.0e8; 2.4e9; 1.0e10 ]

(* A passive RLC ladder a — b — c, loaded at both ends. *)
let ladder () =
  let ckt = Mna.create () in
  let a = Mna.fresh_node ckt "a" in
  let b = Mna.fresh_node ckt "b" in
  let c = Mna.fresh_node ckt "c" in
  Mna.resistor ckt a Mna.ground 75.0;
  Mna.inductor ckt a b 4.0e-9;
  Mna.capacitor ckt b Mna.ground 1.5e-12;
  Mna.resistor ckt b c 220.0;
  Mna.capacitor ckt c Mna.ground 0.8e-12;
  Mna.resistor ckt c Mna.ground 1.0e3;
  (ckt, a, b, c)

let test_reciprocity () =
  let ckt, a, _, c = ladder () in
  (* Transfer impedances Z_ca (inject at a, sense c) and Z_ac. *)
  let transfer () =
    let an = Mna.ac ckt ~freq:2.4e9 in
    let into_a = Mna.solve_injection an ~pos:a ~neg:Mna.ground in
    let into_c = Mna.solve_injection an ~pos:c ~neg:Mna.ground in
    (Mna.voltage into_a c, Mna.voltage into_c a)
  in
  let z_ca, z_ac = transfer () in
  let tol = 1e-9 *. Complex.norm z_ca in
  check_true "non-trivial transfer" (Complex.norm z_ca > 1.0);
  check_float ~tol "Re Z_ca = Re Z_ac" z_ca.Complex.re z_ac.Complex.re;
  check_float ~tol "Im Z_ca = Im Z_ac" z_ca.Complex.im z_ac.Complex.im;
  (* A transconductor is a one-way element: it breaks reciprocity. *)
  Mna.vccs ckt ~out_pos:c ~out_neg:Mna.ground ~ctrl_pos:a ~ctrl_neg:Mna.ground
    ~gm:0.02;
  let fwd, rev = transfer () in
  check_true "vccs makes Z_ca differ from Z_ac"
    (Complex.norm (Complex.sub fwd rev) > 0.1 *. Complex.norm rev)

let test_injection_superposition () =
  let ckt, a, b, c = ladder () in
  let an = Mna.ac ckt ~freq:1.2e9 in
  let into_a = Mna.solve_injection an ~pos:a ~neg:Mna.ground in
  let into_c = Mna.solve_injection an ~pos:c ~neg:Mna.ground in
  let a_to_c = Mna.solve_injection an ~pos:a ~neg:c in
  check_int "one voltage per node" (Mna.node_count ckt) (Array.length a_to_c);
  List.iter
    (fun n ->
      let expected = Complex.sub (Mna.voltage into_a n) (Mna.voltage into_c n) in
      let got = Mna.voltage a_to_c n in
      let tol = 1e-9 *. Float.max 1.0 (Complex.norm expected) in
      let label = Mna.node_name ckt n in
      check_float ~tol ("Re V(" ^ label ^ ")") expected.Complex.re got.Complex.re;
      check_float ~tol ("Im V(" ^ label ^ ")") expected.Complex.im got.Complex.im)
    [ a; b; c ];
  check_float "ground stays at 0 V" 0.0
    (Complex.norm (Mna.voltage a_to_c Mna.ground));
  check_float "a source drawn from its own node injects nothing" 0.0
    (Array.fold_left
       (fun m v -> Float.max m (Complex.norm v))
       0.0
       (Mna.solve_injection an ~pos:b ~neg:b))

(* --- Noise --- *)

let test_resistor_noise_psd () =
  let s = Noise.resistor_source ~label:"R" 1 0 ~r:1000.0 in
  check_float ~tol:1e-26 "4kT/R" (Units.four_kt /. 1000.0) s.Noise.psd

let test_single_resistor_nf () =
  (* A source resistor alone has NF = 0 dB (all noise comes from it). *)
  let ckt = Mna.create () in
  let a = Mna.fresh_node ckt "a" in
  Mna.resistor ckt a Mna.ground 50.0;
  let an = Mna.ac ckt ~freq:1e9 in
  let input_source = Noise.resistor_source ~label:"Rs" a Mna.ground ~r:50.0 in
  let nf =
    Noise.noise_figure_db an ~out_pos:a ~out_neg:Mna.ground ~input_source []
  in
  check_float ~tol:1e-9 "NF = 0 dB" 0.0 nf

let test_matched_attenuator_nf () =
  (* Source 50 Ω into a 50 Ω shunt load: the load adds equal noise at
     the output → F = 1 + (Rs ∥ contribution): transfers are equal, so
     NF = 3 dB. *)
  let ckt = Mna.create () in
  let a = Mna.fresh_node ckt "a" in
  Mna.resistor ckt a Mna.ground 50.0;
  (* source resistance *)
  Mna.resistor ckt a Mna.ground 50.0;
  (* matched shunt load *)
  let an = Mna.ac ckt ~freq:1e9 in
  let input_source = Noise.resistor_source ~label:"Rs" a Mna.ground ~r:50.0 in
  let load = Noise.resistor_source ~label:"RL" a Mna.ground ~r:50.0 in
  let nf =
    Noise.noise_figure_db an ~out_pos:a ~out_neg:Mna.ground ~input_source
      [ load ]
  in
  check_float ~tol:1e-9 "NF = 3 dB" (10.0 *. log10 2.0) nf

let test_noise_report_sorted () =
  let ckt = Mna.create () in
  let a = Mna.fresh_node ckt "a" in
  Mna.resistor ckt a Mna.ground 100.0;
  let an = Mna.ac ckt ~freq:1e9 in
  let big = Noise.resistor_source ~label:"big" a Mna.ground ~r:10.0 in
  let small = Noise.resistor_source ~label:"small" a Mna.ground ~r:1e6 in
  let r = Noise.output_noise an ~out_pos:a ~out_neg:Mna.ground [ small; big ] in
  (match r.Noise.contributions with
  | (label, _) :: _ -> check_true "descending" (String.equal label "big")
  | [] -> Alcotest.fail "no contributions");
  check_true "total positive" (r.Noise.total_psd > 0.0)

(* --- Nonlin --- *)

let test_iip3_formula () =
  check_float ~tol:1e-12 "iip3 amplitude"
    (sqrt (4.0 /. 3.0 *. 2.0))
    (Nonlin.iip3_vamp ~gm:2.0 ~gm3:1.0);
  check_true "linear device -> inf"
    (Nonlin.iip3_vamp ~gm:1.0 ~gm3:0.0 = infinity)

let test_degeneration_improves () =
  let base =
    Nonlin.iip3_dbm ~gm:0.02 ~gm3:(-0.5) ~zs_mag:0.0 ~vgs_per_vsource:1.0
      ~rsource:50.0
  in
  let degenerated =
    Nonlin.iip3_dbm ~gm:0.02 ~gm3:(-0.5) ~zs_mag:50.0 ~vgs_per_vsource:1.0
      ~rsource:50.0
  in
  check_true "degeneration improves IIP3" (degenerated > base)

let test_effective_gm3_no_null () =
  (* Where the bare gm3 crosses zero, the interaction term keeps the
     effective coefficient away from zero. *)
  let g = Nonlin.effective_gm3 ~gm:0.02 ~gm2:0.05 ~gm3:0.0 ~zs_mag:10.0 in
  check_true "no null" (abs_float g > 1e-4)

let test_p1db_backoff () =
  check_float ~tol:1e-6 "9.64 dB" (-9.6383) (Nonlin.p1db_from_iip3_dbm 0.0)

let test_compression_limited () =
  let p1 =
    Nonlin.compression_limited_p1db_dbm ~vlimit:1.0 ~gain_v:10.0 ~rsource:50.0
  in
  let p2 =
    Nonlin.compression_limited_p1db_dbm ~vlimit:1.0 ~gain_v:20.0 ~rsource:50.0
  in
  (* Doubling the gain halves the input swing: 20·log10 2 dB lower. *)
  check_float ~tol:1e-9 "gain tradeoff" (20.0 *. log10 2.0) (p1 -. p2)

let suite =
  [ ( "circuit.mna",
      [ case "resistor divider" test_resistor_divider;
        case "capacitor impedance" test_capacitor_impedance;
        case "inductor impedance" test_inductor_impedance;
        case "LC resonance" test_lc_resonance;
        case "vccs amplifier" test_vccs_amplifier;
        case "floating node" test_floating_node_singular;
        case "node names" test_node_names;
        case "ac and element validation" test_ac_validation;
        case "series RC across frequencies" test_series_rc_across_frequencies;
        case "passive network is reciprocal" test_reciprocity;
        case "injection superposition" test_injection_superposition ] );
    ( "circuit.noise",
      [ case "resistor psd" test_resistor_noise_psd;
        case "lone source NF = 0 dB" test_single_resistor_nf;
        case "matched shunt NF = 3 dB" test_matched_attenuator_nf;
        case "report sorted" test_noise_report_sorted ] );
    ( "circuit.nonlin",
      [ case "iip3 formula" test_iip3_formula;
        case "degeneration improves" test_degeneration_improves;
        case "no IM3 null" test_effective_gm3_no_null;
        case "p1db backoff" test_p1db_backoff;
        case "compression limited" test_compression_limited ] ) ]
