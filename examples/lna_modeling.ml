(* Paper §4.1 in miniature: model the tunable 2.4 GHz LNA's noise
   figure over its 1264 process variables and 32 knob states.

     dune exec examples/lna_modeling.exe

   Uses reduced sample budgets so the example finishes in ~a minute;
   `cbmf_repro tab lna` and `cbmf_repro fig lna` run the full
   paper-scale version. *)

open Cbmf_circuit
open Cbmf_experiments

let () =
  let w = Workload.lna () in
  let tb = w.Workload.testbench in
  Printf.printf "Circuit: %s — %d process variables, %d states, PoIs:"
    tb.Testbench.name (Testbench.dim tb) (Testbench.n_states tb);
  Array.iter (Printf.printf " %s") tb.Testbench.poi_names;
  print_newline ();

  (* "Transistor-level Monte Carlo" (behavioural simulator underneath). *)
  let data = Workload.generate w ~seed:3 ~n_train_max:12 ~n_test_per_state:25 in
  Printf.printf "Simulated %d training and %d testing samples (modeled cost %.2f h)\n\n"
    (Montecarlo.total_samples data.Workload.train_pool)
    (Montecarlo.total_samples data.Workload.test)
    (Montecarlo.simulation_hours data.Workload.train_pool);

  (* Fit every PoI with C-BMF and report held-out accuracy. *)
  Array.iteri
    (fun poi name ->
      let train = Workload.train_dataset data ~poi ~n_per_state:12 in
      let test = Workload.test_dataset data ~poi in
      let model = Cbmf_core.Cbmf.fit ~config:Cbmf_core.Cbmf.fast_config train in
      let info = model.Cbmf_core.Cbmf.info in
      Printf.printf
        "%-5s error %.3f%%  (r0 = %.2f, %d basis functions kept, %.1f s)\n%!"
        name
        (100.0 *. Cbmf_core.Cbmf.test_error model test)
        info.Cbmf_core.Cbmf.r0 info.Cbmf_core.Cbmf.final_active
        info.Cbmf_core.Cbmf.fit_seconds)
    tb.Testbench.poi_names;

  (* Show what the learned state-correlation matrix looks like. *)
  let train = Workload.train_dataset data ~poi:0 ~n_per_state:12 in
  let model = Cbmf_core.Cbmf.fit ~config:Cbmf_core.Cbmf.fast_config train in
  let r = model.Cbmf_core.Cbmf.info.Cbmf_core.Cbmf.final_r in
  Printf.printf "\nLearned R (state-correlation) near the diagonal:\n";
  List.iter
    (fun lag ->
      let acc = ref 0.0 and n = ref 0 in
      for k = 0 to 31 - lag do
        acc := !acc +. Cbmf_linalg.Mat.get r k (k + lag);
        incr n
      done;
      Printf.printf "  lag %2d: mean correlation %+.3f\n" lag
        (!acc /. float_of_int !n))
    [ 0; 1; 2; 4; 8; 16; 31 ]
