open Cbmf_model

type entry = { label : string; error : float; seconds : float }

type t = {
  workload_name : string;
  poi : string;
  n_per_state : int;
  entries : entry array;
}

let run (data : Workload.data) ~poi ~n_per_state =
  let test = Workload.test_dataset data ~poi in
  let train = Workload.train_dataset data ~poi ~n_per_state in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let cbmf label config =
    let model, seconds = time (fun () -> Cbmf_core.Cbmf.fit ~config train) in
    { label; error = Cbmf_core.Cbmf.test_error model test; seconds }
  in
  let somp_entry =
    let (r, _), seconds =
      time (fun () ->
          Somp.fit_cv train ~n_folds:4 ~candidate_terms:[| 5; 10; 15; 20; 25 |])
    in
    {
      label = "S-OMP";
      error = Metrics.coeffs_error_pooled ~coeffs:r.Somp.coeffs test;
      seconds;
    }
  in
  let open Cbmf_core.Cbmf in
  let single_r0 =
    {
      default_config with
      init = { Cbmf_core.Init.default_config with r0_grid = [| 0.9 |] };
    }
  in
  let entries =
    [| somp_entry;
       cbmf "C-BMF (full)" default_config;
       cbmf "C-BMF, R = I (no magnitude corr.)" independent_config;
       cbmf "C-BMF, init only (no EM)" init_only_config;
       cbmf "C-BMF, fixed r0 = 0.9 (no r0 CV)" single_r0 |]
  in
  {
    workload_name = data.Workload.workload.Workload.name;
    poi = Workload.poi_name data.Workload.workload poi;
    n_per_state;
    entries;
  }

let pp ppf t =
  Format.fprintf ppf "@[<v 0>Ablation: %s / %s at N = %d samples/state@,"
    (String.uppercase_ascii t.workload_name)
    t.poi t.n_per_state;
  Array.iter
    (fun e ->
      Format.fprintf ppf "  %-38s %8.3f%%  (%.1f s)@," e.label
        (100.0 *. e.error) e.seconds)
    t.entries;
  Format.fprintf ppf "@]"
