(* Command-line driver: reproduce any of the paper's experiments by id. *)

open Cmdliner
open Cbmf_experiments

let fmt = Format.std_formatter

let workload_of_name = function
  | "lna" -> Workload.lna ()
  | "mixer" -> Workload.mixer ()
  | name -> invalid_arg (Printf.sprintf "unknown circuit %S" name)

let load ~seed ~n_test w =
  Printf.printf "Generating Monte-Carlo data for %s (seed %d)...\n%!"
    w.Workload.name seed;
  Workload.generate w ~seed ~n_train_max:35 ~n_test_per_state:n_test

let cbmf_config ~quick =
  if quick then Cbmf_core.Cbmf.fast_config else Cbmf_core.Cbmf.default_config

let run_figures ~seed ~n_test ~quick name =
  let data = load ~seed ~n_test (workload_of_name name) in
  let n_grid = if quick then [| 10; 20; 35 |] else [| 10; 15; 20; 25; 30; 35 |] in
  let series =
    Sweep.run_all ~cbmf_config:(cbmf_config ~quick) ~n_grid data
  in
  Array.iter (fun s -> Format.fprintf fmt "%a@.@." Sweep.pp s) series

let run_table ~seed ~n_test ~quick name =
  let data = load ~seed ~n_test (workload_of_name name) in
  let t = Tables.run ~cbmf_config:(cbmf_config ~quick) data in
  Format.fprintf fmt "%a@." Tables.pp t;
  Format.fprintf fmt "Accuracy preserved: %b@." (Tables.accuracy_preserved t)

let run_ablation ~seed ~n_test name poi n_per_state =
  let w = workload_of_name name in
  let data = load ~seed ~n_test w in
  let poi_idx = Cbmf_circuit.Testbench.poi_index w.Workload.testbench poi in
  let a = Ablation.run data ~poi:poi_idx ~n_per_state in
  Format.fprintf fmt "%a@." Ablation.pp a

(* Active-learning sample-efficiency curve on a synthetic ground truth:
   variance acquisition vs the fixed grid at matched simulator budgets. *)
let run_budget ~k ~m ~d ~active ~rho ~noise ~seed ~pool_size =
  let spec =
    {
      Cbmf_circuit.Synthetic.default_spec with
      Cbmf_circuit.Synthetic.k;
      m;
      d;
      active_per_state = active;
      rho;
      noise_sigma = noise;
      seed;
    }
  in
  let r = Budget.run ~pool_size spec in
  Format.fprintf fmt "%a@." Budget.pp_result r

let run_recovery () = Recovery.pp_cells fmt (Recovery.table ())

(* --- cmdliner plumbing --- *)

let seed_t =
  Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Monte-Carlo seed.")

let n_test_t =
  Arg.(
    value & opt int 50
    & info [ "n-test" ] ~doc:"Testing samples per state (paper: 50).")

let quick_t =
  Arg.(
    value & flag
    & info [ "quick" ] ~doc:"Smaller grids / faster (non-paper) settings.")

let circuit_pos =
  Arg.(
    required
    & pos 0 (some (enum [ ("lna", "lna"); ("mixer", "mixer") ])) None
    & info [] ~docv:"CIRCUIT" ~doc:"lna or mixer.")

let fig_cmd =
  let doc = "Reproduce Figure 2 (lna) or Figure 3 (mixer): error vs samples." in
  Cmd.v (Cmd.info "fig" ~doc)
    Term.(
      const (fun seed n_test quick name -> run_figures ~seed ~n_test ~quick name)
      $ seed_t $ n_test_t $ quick_t $ circuit_pos)

let tab_cmd =
  let doc = "Reproduce Table 1 (lna) or Table 2 (mixer): error and cost." in
  Cmd.v (Cmd.info "tab" ~doc)
    Term.(
      const (fun seed n_test quick name -> run_table ~seed ~n_test ~quick name)
      $ seed_t $ n_test_t $ quick_t $ circuit_pos)

let poi_t =
  Arg.(value & opt string "NF" & info [ "poi" ] ~doc:"Performance of interest.")

let n_train_t =
  Arg.(value & opt int 15 & info [ "n-train" ] ~doc:"Training samples/state.")

let ablation_cmd =
  let doc = "Ablate C-BMF's design choices on one circuit/PoI." in
  Cmd.v (Cmd.info "ablation" ~doc)
    Term.(
      const (fun seed n_test name poi n -> run_ablation ~seed ~n_test name poi n)
      $ seed_t $ n_test_t $ circuit_pos $ poi_t $ n_train_t)

let budget_cmd =
  let doc =
    "Active-learning accuracy-vs-samples curve (synthetic ground truth)."
  in
  let k_t = Arg.(value & opt int 32 & info [ "k" ] ~doc:"States K.") in
  let m_t = Arg.(value & opt int 21 & info [ "m" ] ~doc:"Dictionary size M.") in
  let d_t = Arg.(value & opt int 10 & info [ "d" ] ~doc:"Device variables.") in
  let active_t =
    Arg.(value & opt int 4 & info [ "active" ] ~doc:"Planted support size.")
  in
  let rho_t =
    Arg.(value & opt float 0.9 & info [ "rho" ] ~doc:"Cross-state correlation.")
  in
  let noise_t =
    Arg.(value & opt float 0.1 & info [ "noise" ] ~doc:"Observation noise sd.")
  in
  let pool_t =
    Arg.(value & opt int 24 & info [ "pool" ] ~doc:"Candidates per round.")
  in
  Cmd.v (Cmd.info "budget" ~doc)
    Term.(
      const (fun seed k m d active rho noise pool_size ->
          run_budget ~k ~m ~d ~active ~rho ~noise ~seed ~pool_size)
      $ seed_t $ k_t $ m_t $ d_t $ active_t $ rho_t $ noise_t $ pool_t)

let recovery_cmd =
  let doc =
    "Ground-truth recovery table (synthetic, K = 12, rho = 0.9): C-BMF vs \
     the uncorrelated ablation at 4, 6 and 8 samples per state."
  in
  Cmd.v (Cmd.info "recovery" ~doc) Term.(const run_recovery $ const ())

let all_cmd =
  let doc = "Run every table and figure (the full evaluation)." in
  Cmd.v (Cmd.info "all" ~doc)
    Term.(
      const (fun seed n_test quick ->
          List.iter
            (fun name ->
              run_table ~seed ~n_test ~quick name;
              run_figures ~seed ~n_test ~quick name)
            [ "lna"; "mixer" ])
      $ seed_t $ n_test_t $ quick_t)

let main =
  let doc = "Reproduction of C-BMF (Wang & Li, DAC 2016)." in
  Cmd.group (Cmd.info "cbmf_repro" ~doc)
    [ fig_cmd; tab_cmd; ablation_cmd; budget_cmd; recovery_cmd; all_cmd ]

let () = exit (Cmd.eval main)
