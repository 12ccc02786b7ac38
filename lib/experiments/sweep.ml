open Cbmf_model

type point = {
  n_per_state : int;
  n_total : int;
  somp_error : float;
  somp_theta : int;
  somp_seconds : float;
  cbmf_error : float;
  cbmf_theta : int;
  cbmf_r0 : float;
  cbmf_seconds : float;
}

type series = { workload_name : string; poi : string; points : point array }

let default_somp_terms = [| 5; 10; 15; 20; 25; 30 |]

let run ?(cbmf_config = Cbmf_core.Cbmf.default_config)
    ?(somp_terms = default_somp_terms) (data : Workload.data) ~poi ~n_grid =
  let test = Workload.test_dataset data ~poi in
  let k = data.Workload.train_pool.Cbmf_circuit.Montecarlo.n_per_state in
  (* Sample-budget points are independent fits: fan them out across the
     domain pool.  Each point only writes its own slot, so the series
     is identical to the sequential map. *)
  let pool = Cbmf_parallel.Pool.default () in
  let points =
    Cbmf_parallel.Pool.map_array ~chunk:1 pool
      (fun n ->
        assert (n <= k);
        let train = Workload.train_dataset data ~poi ~n_per_state:n in
        let terms = Array.of_list (List.filter (fun t -> t < n) (Array.to_list somp_terms)) in
        let terms = if Array.length terms = 0 then [| Stdlib.max 1 (n - 1) |] else terms in
        (* Wall clock, like [fit_seconds]: CPU time pools across domains. *)
        let t0 = Unix.gettimeofday () in
        let somp, somp_theta = Somp.fit_cv train ~n_folds:4 ~candidate_terms:terms in
        let somp_seconds = Unix.gettimeofday () -. t0 in
        let somp_error =
          Metrics.coeffs_error_pooled ~coeffs:somp.Somp.coeffs test
        in
        let model = Cbmf_core.Cbmf.fit ~config:cbmf_config train in
        let cbmf_error = Cbmf_core.Cbmf.test_error model test in
        {
          n_per_state = n;
          n_total = n * train.Dataset.n_states;
          somp_error;
          somp_theta;
          somp_seconds;
          cbmf_error;
          cbmf_theta = model.Cbmf_core.Cbmf.info.Cbmf_core.Cbmf.theta;
          cbmf_r0 = model.Cbmf_core.Cbmf.info.Cbmf_core.Cbmf.r0;
          cbmf_seconds = model.Cbmf_core.Cbmf.info.Cbmf_core.Cbmf.fit_seconds;
        })
      n_grid
  in
  {
    workload_name = data.Workload.workload.Workload.name;
    poi = Workload.poi_name data.Workload.workload poi;
    points;
  }

let run_all ?cbmf_config ?(n_grid = [| 10; 15; 20; 25; 30; 35 |]) data =
  let n_pois =
    Cbmf_circuit.Testbench.n_pois
      data.Workload.workload.Workload.testbench
  in
  Array.init n_pois (fun poi -> run ?cbmf_config data ~poi ~n_grid)

let pp ppf s =
  Format.fprintf ppf "@[<v 0>";
  Format.fprintf ppf "%s / %s: modeling error vs training samples@,"
    (String.uppercase_ascii s.workload_name)
    s.poi;
  Format.fprintf ppf "  %8s %8s | %10s %6s | %10s %6s %6s@," "N/state" "total"
    "S-OMP err" "theta" "C-BMF err" "theta" "r0";
  Array.iter
    (fun p ->
      Format.fprintf ppf "  %8d %8d | %9.3f%% %6d | %9.3f%% %6d %6.3f@,"
        p.n_per_state p.n_total
        (100.0 *. p.somp_error)
        p.somp_theta
        (100.0 *. p.cbmf_error)
        p.cbmf_theta p.cbmf_r0)
    s.points;
  Format.fprintf ppf "@]"
