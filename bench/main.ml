(* Benchmark harness.

   Regenerates every table and figure of the paper's evaluation
   (Tables 1-2, Figures 2(b)-(d), 3(b)-(d)), runs the ablation studies
   from DESIGN.md, and closes with Bechamel micro-benchmarks of the
   fitting kernels behind each table/figure (on a dimension-reduced
   instance so Bechamel can afford many repetitions; the harness above
   reports the true paper-scale fitting costs).

   Usage: main.exe [tab1] [tab2] [fig2] [fig3] [ablation] [micro] [par]
                   [posterior] [serve] [frontend] [synth] [quick|full|smoke]
   CBMF_BENCH_QUICK=1 forces the reduced [synth] grid without smoke
   validation.
   With no arguments everything runs at paper scale with a 4-point
   sample-budget grid for the figures; [full] uses the paper's 6-point
   grid, [quick] reduced (non-paper) settings. *)

open Cbmf_experiments

let fmt = Format.std_formatter

let section title = Format.fprintf fmt "@.=== %s ===@.@." title

(* Monte-Carlo data is generated once per circuit and shared. *)
let data_cache : (string, Workload.data) Hashtbl.t = Hashtbl.create 4

let data_for name =
  match Hashtbl.find_opt data_cache name with
  | Some d -> d
  | None ->
      let w = match name with "lna" -> Workload.lna () | _ -> Workload.mixer () in
      Format.fprintf fmt "[generating Monte-Carlo data: %s]@." name;
      let d = Workload.generate w ~seed:1 ~n_train_max:35 ~n_test_per_state:50 in
      Hashtbl.add data_cache name d;
      d

let cbmf_config ~quick =
  if quick then Cbmf_core.Cbmf.fast_config else Cbmf_core.Cbmf.default_config

let run_table ~quick id name =
  section (Printf.sprintf "%s (paper Table %s: %s)" id (String.sub id 3 1) name);
  let t = Tables.run ~cbmf_config:(cbmf_config ~quick) (data_for name) in
  Format.fprintf fmt "%a@." Tables.pp t;
  Format.fprintf fmt "Accuracy preserved (<=10%% relative): %b@."
    (Tables.accuracy_preserved t)

let run_figure ~quick ~full id name =
  section
    (Printf.sprintf "%s (paper Figure %s(b)-(d): %s error vs samples)" id
       (String.sub id 3 1) name);
  let n_grid =
    if quick then [| 10; 20; 35 |]
    else if full then [| 10; 15; 20; 25; 30; 35 |]
    else [| 10; 15; 25; 35 |]
  in
  let series =
    Sweep.run_all ~cbmf_config:(cbmf_config ~quick) ~n_grid (data_for name)
  in
  Array.iter (fun s -> Format.fprintf fmt "%a@.@." Sweep.pp s) series

let run_ablation () =
  section "Ablations (DESIGN.md: ablation-r / ablation-em / ablation-r0)";
  List.iter
    (fun name ->
      let data = data_for name in
      let a = Ablation.run data ~poi:0 ~n_per_state:15 in
      Format.fprintf fmt "%a@.@." Ablation.pp a)
    [ "lna"; "mixer" ]

(* --- Domain-parallel matrix ---------------------------------------- *)

(* Domain-count matrix for the parallel layer: {1, 2, 4} domains ×
   {em-fit, posterior-dual, matmul_nt, predict_batch, synth-k128},
   every cell timed min-of-reps against a sequential (pool size 1)
   reference pass, written to BENCH_parallel.json.  [smoke] shrinks
   the workloads (synthetic instances, no Monte-Carlo generation),
   re-reads the JSON, validates the schema and fails hard unless the
   1-domain cells stay within the 1.05x overhead bound — the contract
   that a 1-domain pool takes the sequential fallback and costs
   (essentially) nothing.  The [par-smoke] dune alias runs this under
   [dune runtest]. *)
let run_par ~smoke ~quick =
  section
    (if smoke then "par (smoke: domain-matrix schema + 1-domain overhead)"
     else "par (domain-count matrix {1,2,4} x 5 kernels, min-of-reps)");
  let module Pool = Cbmf_parallel.Pool in
  let module Tune = Cbmf_parallel.Tune in
  let module Synthetic = Cbmf_circuit.Synthetic in
  let open Cbmf_linalg in
  let domain_counts = [ 1; 2; 4 ] in
  let reps = if smoke then 5 else 3 in
  let time_min f =
    f ();
    (* warm: spawns the pool at the current size, pages buffers in *)
    let best = ref infinity in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      f ();
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    !best
  in
  let synth_spec ~k ~d ~m ~active ~seed =
    { Synthetic.k; m; d; active_per_state = active; rho = 0.9;
      noise_sigma = 0.05; density = 0.2; seed }
  in
  let synth_instance ~k ~d ~m ~active ~n_per_state ~seed =
    let truth = Synthetic.truth (synth_spec ~k ~d ~m ~active ~seed) in
    (truth, Synthetic.dataset truth ~n_per_state)
  in
  let dual_prior (truth : Synthetic.t) =
    let lambda = Array.make truth.Synthetic.spec.Synthetic.m 1e-7 in
    Array.iteri
      (fun i col -> lambda.(col) <- truth.Synthetic.lambda.(i))
      truth.Synthetic.support;
    Cbmf_core.Prior.create ~lambda ~r:(Mat.copy truth.Synthetic.r) ~sigma0:0.1
  in
  (* 1. em-fit: the acceptance-criterion workload (full run = LNA
     testbench; smoke = synthetic, Monte-Carlo-free). *)
  let em_kernel =
    if smoke then begin
      let _, train =
        synth_instance ~k:8 ~d:20 ~m:21 ~active:4 ~n_per_state:24 ~seed:7
      in
      let config =
        {
          Cbmf_core.Cbmf.init =
            {
              Cbmf_core.Init.r0_grid = [| 0.9 |];
              sigma0_grid = [| 0.1 |];
              theta_max = 5;
              n_folds = 2;
              lambda_off = 1e-7;
            };
          em = { Cbmf_core.Em.default_config with max_iter = 3; tol = 1e-3 };
        }
      in
      fun () -> ignore (Cbmf_core.Cbmf.fit ~config train)
    end
    else begin
      let data = data_for "lna" in
      let train = Workload.train_dataset data ~poi:0 ~n_per_state:15 in
      let config = cbmf_config ~quick in
      fun () -> ignore (Cbmf_core.Cbmf.fit ~config train)
    end
  in
  (* 2. posterior-dual: the G-assembly pair fan-out + NK x NK solve. *)
  let dual_kernel =
    let k, d, m, active, n_per_state =
      if smoke then (12, 24, 25, 6, 24) else (32, 60, 61, 8, 20)
    in
    let truth, train = synth_instance ~k ~d ~m ~active ~n_per_state ~seed:11 in
    let prior = dual_prior truth in
    fun () ->
      ignore
        (Cbmf_core.Posterior.compute ~need_sigma:true ~path:`Dual train prior
           ~active:truth.Synthetic.support)
  in
  (* 3. matmul_nt: the blocked GEMM behind Gram assembly, at a shape
     above the fan-out threshold. *)
  let gemm_kernel =
    let dim = if smoke then 256 else 360 in
    let rng = Cbmf_prob.Rng.create 17 in
    let ga = Mat.init dim dim (fun _ _ -> Cbmf_prob.Rng.gaussian rng) in
    let gb = Mat.init dim dim (fun _ _ -> Cbmf_prob.Rng.gaussian rng) in
    let dst = Mat.create dim dim in
    fun () -> Mat.matmul_nt_into ga gb ~dst
  in
  (* 4. predict_batch: the serving tier's chunk fan-out. *)
  let predict_kernel =
    let k, d, m, active, n_batch =
      if smoke then (8, 32, 65, 5, 32768) else (32, 32, 65, 8, 8192)
    in
    let truth = Synthetic.truth (synth_spec ~k ~d ~m ~active ~seed:23) in
    let model = Cbmf_serve.Model.of_synthetic truth in
    let xs, states = Synthetic.batch_inputs truth ~salt:0 ~n:n_batch in
    fun () -> ignore (Cbmf_serve.Engine.predict_batch model ~states ~xs)
  in
  (* 5. synth-k128: many-state posterior (K^2 = 16384 pair fan-out). *)
  let synth_kernel =
    let d, m, active, n_per_state =
      if smoke then (16, 17, 4, 4) else (200, 201, 6, 6)
    in
    let truth, train =
      synth_instance ~k:128 ~d ~m ~active ~n_per_state ~seed:33
    in
    fun () -> ignore (Recovery.posterior_path truth train)
  in
  let kernels =
    [ ("em-fit", em_kernel);
      ("posterior-dual", dual_kernel);
      ("matmul_nt", gemm_kernel);
      ("predict_batch", predict_kernel);
      ("synth-k128", synth_kernel) ]
  in
  let results =
    List.map
      (fun (name, f) ->
        Pool.set_default_size 1;
        let seconds_seq = time_min f in
        let cells =
          List.map
            (fun domains ->
              Pool.set_default_size domains;
              let s = time_min f in
              (domains, s, seconds_seq /. s, s /. seconds_seq))
            domain_counts
        in
        Format.fprintf fmt "  %-15s seq %9.4f s  |" name seconds_seq;
        List.iter
          (fun (dc, s, sp, _) ->
            Format.fprintf fmt "  %dd %9.4f s (%5.2fx)" dc s sp)
          cells;
        Format.fprintf fmt "@.";
        (name, seconds_seq, cells))
      kernels
  in
  Pool.set_default_size (Pool.env_domains ());
  let rec_domains = Domain.recommended_domain_count () in
  let tuned = Tune.recommended_domains () in
  Format.fprintf fmt
    "  recommended_domain_count = %d, tuned_domains = %d@." rec_domains tuned;
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Printf.bprintf buf "  \"domain_counts\": [%s],\n"
    (String.concat ", " (List.map string_of_int domain_counts));
  Printf.bprintf buf "  \"recommended_domain_count\": %d,\n" rec_domains;
  Printf.bprintf buf "  \"tuned_domains\": %d,\n" tuned;
  Buffer.add_string buf "  \"kernels\": [\n";
  List.iteri
    (fun i (name, seconds_seq, cells) ->
      Printf.bprintf buf "    {\"name\": %S, \"seconds_seq\": %.6f, \"cells\": [\n"
        name seconds_seq;
      List.iteri
        (fun j (dc, s, sp, ov) ->
          Printf.bprintf buf
            "      {\"domains\": %d, \"seconds\": %.6f, \
             \"speedup_vs_seq\": %.4f, \"overhead_vs_seq\": %.4f}%s\n"
            dc s sp ov
            (if j = List.length cells - 1 then "" else ","))
        cells;
      Printf.bprintf buf "    ]}%s\n"
        (if i = List.length results - 1 then "" else ","))
    results;
  Buffer.add_string buf "  ]\n";
  Buffer.add_string buf "}\n";
  let oc = open_out "BENCH_parallel.json" in
  Buffer.output_buffer oc buf;
  close_out oc;
  Format.fprintf fmt "  [wrote BENCH_parallel.json]@.";
  if smoke then begin
    let ic = open_in "BENCH_parallel.json" in
    let body = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let has needle =
      let nl = String.length needle and bl = String.length body in
      let rec scan i =
        if i + nl > bl then false
        else if String.sub body i nl = needle then true
        else scan (i + 1)
      in
      scan 0
    in
    let required =
      [ "\"domain_counts\""; "\"recommended_domain_count\"";
        "\"tuned_domains\""; "\"kernels\""; "\"seconds_seq\""; "\"cells\"";
        "\"domains\""; "\"seconds\""; "\"speedup_vs_seq\"";
        "\"overhead_vs_seq\""; "\"em-fit\""; "\"posterior-dual\"";
        "\"matmul_nt\""; "\"predict_batch\""; "\"synth-k128\"" ]
    in
    let missing = List.filter (fun k -> not (has k)) required in
    if missing <> [] then begin
      Format.fprintf fmt "  SMOKE FAIL: missing %s@."
        (String.concat ", " missing);
      exit 1
    end;
    (* Every kernel must carry one cell per domain count, all timings
       finite and positive. *)
    List.iter
      (fun (name, seconds_seq, cells) ->
        if List.map (fun (dc, _, _, _) -> dc) cells <> domain_counts then begin
          Format.fprintf fmt "  SMOKE FAIL: %s missing domain cells@." name;
          exit 1
        end;
        List.iter
          (fun (_, s, _, _) ->
            if not (Float.is_finite s && s > 0.0) then begin
              Format.fprintf fmt "  SMOKE FAIL: %s has bad timing@." name;
              exit 1
            end)
          ((0, seconds_seq, 0.0, 0.0) :: cells))
      results;
    (* The 1-domain overhead bound: a 1-domain pool takes the
       sequential fallback, so it must stay within 5% of a sequential
       pass.  The matrix cells above are measured in separate windows,
       where concurrent runtest load can skew the ratio — so the
       asserted measurement times back-to-back pairs, alternates which
       leg runs first (ordering/cache drift cancels) and takes the
       median ratio over every pair (GC-pause outliers drop out).  The
       legs are timed in process CPU time: with one domain the process
       runs nothing else, so its CPU time is the leg's work, while wall
       time also counts the slices the host hands to other processes.
       Wall-clock pairs swing 0.3-3x under a concurrent test binary on
       a 2-vCPU VM, and a median over 21 of them crossed 1.05x in about
       one run in three; CPU-time medians over 41 pairs stay within
       2 %. *)
    Pool.set_default_size 1;
    List.iter
      (fun (name, f) ->
        f ();
        let n_pairs = (8 * reps) + 1 in
        let ratios =
          Array.init n_pairs (fun i ->
              let t0 = Sys.time () in
              f ();
              let t1 = Sys.time () in
              f ();
              let t2 = Sys.time () in
              let first = t1 -. t0 and second = t2 -. t1 in
              if i land 1 = 0 then second /. first else first /. second)
        in
        Array.sort compare ratios;
        let ov = ratios.(n_pairs / 2) in
        if ov > 1.05 then begin
          Format.fprintf fmt
            "  SMOKE FAIL: %s 1-domain overhead %.3fx > 1.05x@." name ov;
          exit 1
        end)
      kernels;
    Pool.set_default_size (Pool.env_domains ());
    (* On a 1-core container (no CBMF_DOMAINS override) the tuner must
       recommend exactly 1 domain — no parallel path, no calibration. *)
    (if Sys.getenv_opt "CBMF_DOMAINS" = None && rec_domains = 1
        && tuned <> 1 then begin
       Format.fprintf fmt
         "  SMOKE FAIL: 1-core container but tuned_domains = %d@." tuned;
       exit 1
     end);
    Format.fprintf fmt
      "  smoke OK: schema valid, 1-domain overhead within 1.05x@."
  end

(* --- Posterior before/after kernels -------------------------------- *)

(* Times the PR's optimized hot paths against the frozen pre-PR
   implementations ([Legacy], naive GEMM), single-core, and writes
   BENCH_posterior.json.  [smoke] swaps the LNA workload for a tiny
   synthetic instance (no Monte-Carlo generation), then re-reads the
   JSON and fails hard unless the schema holds and both solver paths
   were exercised — this is what the [bench-smoke] dune alias runs
   under [dune runtest]. *)
let run_posterior ~smoke =
  section
    (if smoke then "posterior (smoke: schema + both solver paths)"
     else "posterior (before/after kernels, LNA workload)");
  let module Pool = Cbmf_parallel.Pool in
  let open Cbmf_linalg in
  Pool.set_default_size 1;
  let workload, n_per_state, d, prior =
    if smoke then begin
      let rng = Cbmf_prob.Rng.create 5 in
      let k = 3 and n = 6 and m = 10 in
      let design =
        Array.init k (fun _ ->
            Mat.init n m (fun _ _ -> Cbmf_prob.Rng.gaussian rng))
      in
      let response =
        Array.init k (fun _ -> Cbmf_prob.Rng.gaussian_vector rng n)
      in
      let d = Cbmf_model.Dataset.create ~design ~response in
      let lambda = Array.make m 1e-7 in
      Array.iter (fun j -> lambda.(j) <- 1.0) [| 1; 4; 7 |];
      let prior =
        Cbmf_core.Prior.create ~lambda
          ~r:(Cbmf_core.Prior.r_of_r0 ~n_states:k ~r0:0.9)
          ~sigma0:0.3
      in
      ("synthetic-smoke", n, d, prior)
    end
    else begin
      let data = data_for "lna" in
      let train = Workload.train_dataset data ~poi:0 ~n_per_state:15 in
      let _, std = Cbmf_core.Standardize.fit train in
      let init =
        Cbmf_core.Init.run
          ~config:Cbmf_core.Cbmf.fast_config.Cbmf_core.Cbmf.init std
      in
      ("lna", 15, std, init.Cbmf_core.Init.prior)
    end
  in
  let active =
    (* The initializer's support: post-pruning regime, aK < NK. *)
    let keep = ref [] in
    Array.iteri
      (fun j lam -> if lam > 1e-3 then keep := j :: !keep)
      prior.Cbmf_core.Prior.lambda;
    Array.of_list (List.rev !keep)
  in
  let reps = if smoke then 1 else 3 in
  let time_n f =
    f ();
    (* warm *)
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      f ()
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int reps
  in
  (* 1. Blocked GEMM vs the naive triple loop, at Gram-assembly scale. *)
  let gemm_dim = if smoke then 24 else 360 in
  let rng = Cbmf_prob.Rng.create 17 in
  let ga =
    Mat.init gemm_dim gemm_dim (fun _ _ -> Cbmf_prob.Rng.gaussian rng)
  in
  let gb =
    Mat.init gemm_dim gemm_dim (fun _ _ -> Cbmf_prob.Rng.gaussian rng)
  in
  let gemm_before = time_n (fun () -> ignore (Mat.matmul_nt_naive ga gb)) in
  let gemm_after = time_n (fun () -> ignore (Mat.matmul_nt ga gb)) in
  (* 2. Full posterior (μ, Σ-blocks, NLML), legacy vs each new path. *)
  let post_before =
    time_n (fun () -> ignore (Legacy.compute ~need_sigma:true d prior ~active))
  in
  let post_dual =
    time_n (fun () ->
        ignore
          (Cbmf_core.Posterior.compute ~need_sigma:true ~path:`Dual d prior
             ~active))
  in
  let post_primal =
    time_n (fun () ->
        ignore
          (Cbmf_core.Posterior.compute ~need_sigma:true ~path:`Primal d prior
             ~active))
  in
  let path_chosen =
    let p =
      Cbmf_core.Posterior.compute ~need_sigma:true ~path:`Auto d prior ~active
    in
    match p.Cbmf_core.Posterior.path with `Dual -> "dual" | `Primal -> "primal"
  in
  (* 3. End-to-end EM fit: the acceptance-criterion workload. *)
  let em_config =
    if smoke then { Cbmf_core.Em.default_config with max_iter = 3 }
    else Cbmf_core.Cbmf.fast_config.Cbmf_core.Cbmf.em
  in
  let em_before =
    time_n (fun () ->
        ignore (Cbmf_core.Em.run ~config:em_config ~posterior:Legacy.compute d prior))
  in
  let em_after =
    time_n (fun () -> ignore (Cbmf_core.Em.run ~config:em_config d prior))
  in
  Pool.set_default_size (Pool.env_domains ());
  let kernels =
    [ ("matmul_nt", gemm_before, gemm_after);
      ("posterior-dual", post_before, post_dual);
      ("posterior-primal", post_before, post_primal);
      ("em-fit", em_before, em_after) ]
  in
  List.iter
    (fun (name, before, after) ->
      Format.fprintf fmt "  %-18s before %10.4f s   after %10.4f s   %6.2fx@."
        name before after (before /. after))
    kernels;
  Format.fprintf fmt "  auto path on support (aK=%d, NK=%d): %s@."
    (Array.length active * d.Cbmf_model.Dataset.n_states)
    (d.Cbmf_model.Dataset.n_states * d.Cbmf_model.Dataset.n_samples)
    path_chosen;
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Printf.bprintf buf "  \"workload\": %S,\n" workload;
  Buffer.add_string buf "  \"kernel\": \"em-fit\",\n";
  Printf.bprintf buf "  \"n_per_state\": %d,\n" n_per_state;
  Printf.bprintf buf "  \"path_chosen\": %S,\n" path_chosen;
  Buffer.add_string buf "  \"paths_exercised\": [\"dual\", \"primal\"],\n";
  Buffer.add_string buf "  \"kernels\": [\n";
  List.iteri
    (fun i (name, before, after) ->
      Printf.bprintf buf
        "    {\"name\": %S, \"seconds_before\": %.6f, \"seconds_after\": \
         %.6f, \"speedup\": %.4f}%s\n"
        name before after (before /. after)
        (if i = List.length kernels - 1 then "" else ","))
    kernels;
  Buffer.add_string buf "  ],\n";
  Printf.bprintf buf "  \"speedup\": %.4f\n" (em_before /. em_after);
  Buffer.add_string buf "}\n";
  let oc = open_out "BENCH_posterior.json" in
  Buffer.output_buffer oc buf;
  close_out oc;
  Format.fprintf fmt "  [wrote BENCH_posterior.json]@.";
  if smoke then begin
    let ic = open_in "BENCH_posterior.json" in
    let len = in_channel_length ic in
    let body = really_input_string ic len in
    close_in ic;
    let has needle =
      let nl = String.length needle and bl = String.length body in
      let rec scan i =
        if i + nl > bl then false
        else if String.sub body i nl = needle then true
        else scan (i + 1)
      in
      scan 0
    in
    let required =
      [ "\"workload\""; "\"kernel\""; "\"n_per_state\""; "\"path_chosen\"";
        "\"paths_exercised\""; "\"kernels\""; "\"seconds_before\"";
        "\"seconds_after\""; "\"speedup\""; "\"dual\""; "\"primal\"";
        "\"posterior-dual\""; "\"posterior-primal\""; "\"em-fit\"" ]
    in
    let missing = List.filter (fun k -> not (has k)) required in
    if missing <> [] then begin
      Format.fprintf fmt "  SMOKE FAIL: missing %s@."
        (String.concat ", " missing);
      exit 1
    end;
    if not (path_chosen = "dual" || path_chosen = "primal") then begin
      Format.fprintf fmt "  SMOKE FAIL: bad path_chosen %s@." path_chosen;
      exit 1
    end;
    Format.fprintf fmt "  smoke OK: schema valid, both paths exercised@."
  end

(* --- Serving: batched engine and registry -------------------------- *)

(* Times the serving subsystem and writes BENCH_serve.json: batched
   [Engine.predict_batch] vs the naive per-point [Model.predict] loop
   (points/second), and a cold registry hit (snapshot load + decode)
   vs warm hits.  [smoke] shrinks the instance, re-reads the JSON and
   fails hard unless the schema holds and the batched path is
   bit-identical to the naive loop. *)
let run_serve ~smoke =
  section
    (if smoke then "serve (smoke: schema + batched = naive bitwise)"
     else "serve (batched vs naive, cold vs warm registry)");
  let module S = Cbmf_serve in
  let open Cbmf_linalg in
  let rng = Cbmf_prob.Rng.create 23 in
  let dim = if smoke then 8 else 32 in
  let k = if smoke then 6 else 32 in
  let a = if smoke then 16 else 64 in
  let batch = if smoke then 256 else 4096 in
  let model =
    {
      S.Model.input_dim = dim;
      n_states = k;
      terms =
        Array.init a (fun j ->
            if j = 0 then Cbmf_basis.Term.Constant
            else if j <= dim then Cbmf_basis.Term.Linear ((j - 1) mod dim)
            else Cbmf_basis.Term.Square ((j - 1) mod dim));
      col_means = Mat.init k a (fun _ _ -> 0.1 *. Cbmf_prob.Rng.gaussian rng);
      col_scales = Array.init a (fun j -> 1.0 +. (0.1 *. float_of_int (j mod 5)));
      y_means = Array.init k (fun _ -> Cbmf_prob.Rng.gaussian rng);
      y_scale = 2.0;
      mu = Mat.init a k (fun _ _ -> Cbmf_prob.Rng.gaussian rng);
      lambda = Array.make a 1.0;
      r = Mat.init k k (fun i j -> if i = j then 1.0 else 0.5);
      sigma0 = 0.1;
      cov =
        Array.init k (fun _ ->
            Mat.init a a (fun i j ->
                if i = j then 1.0 else 0.01 *. float_of_int ((i + j) mod 7)));
    }
  in
  (match S.Model.validate model with
  | Ok () -> ()
  | Error e ->
      Format.fprintf fmt "  SMOKE FAIL: synthetic model invalid: %s@." e;
      exit 1);
  let xs = Mat.init batch dim (fun _ _ -> Cbmf_prob.Rng.gaussian rng) in
  let states = Array.init batch (fun i -> i mod k) in
  let reps = if smoke then 3 else 10 in
  let time_n f =
    f ();
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      f ()
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int reps
  in
  let naive () =
    let means = Array.make batch 0.0 and sds = Array.make batch 0.0 in
    for i = 0 to batch - 1 do
      let m, s = S.Model.predict model ~state:states.(i) (Mat.row xs i) in
      means.(i) <- m;
      sds.(i) <- s
    done;
    (means, sds)
  in
  let batched () = S.Engine.predict_batch model ~states ~xs in
  (* Correctness first: the two paths must agree bit-for-bit. *)
  let nm, ns = naive () in
  let bm, bs = batched () in
  let bits_eq xs ys =
    Array.for_all2
      (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
      xs ys
  in
  if not (bits_eq nm bm && bits_eq ns bs) then begin
    Format.fprintf fmt "  SMOKE FAIL: batched path differs from naive loop@.";
    exit 1
  end;
  let naive_s = time_n (fun () -> ignore (naive ())) in
  let batched_s = time_n (fun () -> ignore (batched ())) in
  let pps s = float_of_int batch /. s in
  (* Registry: cold load (snapshot decode from disk) vs warm hits. *)
  let tmp = Filename.temp_file "cbmf_serve_bench" ".snap" in
  S.Snapshot.save ~path:tmp model;
  let reg = S.Registry.create () in
  S.Registry.add_path reg ~name:"m" tmp;
  let t0 = Unix.gettimeofday () in
  let loaded = S.Registry.get reg ~name:"m" in
  let cold_s = Unix.gettimeofday () -. t0 in
  if not (S.Model.equal loaded model) then begin
    Format.fprintf fmt "  SMOKE FAIL: registry round-trip not bit-identical@.";
    exit 1
  end;
  let warm_reps = 1000 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to warm_reps do
    ignore (S.Registry.get reg ~name:"m")
  done;
  let warm_s = (Unix.gettimeofday () -. t0) /. float_of_int warm_reps in
  Sys.remove tmp;
  (* Codec: zero-copy framed writes vs the legacy encode-then-frame
     path (one string per message body, another copy to prepend the
     length prefix), on a predict request/reply pair.  Alloc per frame
     via [Gc.allocated_bytes]; wire bytes must be identical, since the
     zero-copy writer is an encoding of the same frozen format, not a
     new one. *)
  let creq =
    S.Protocol.Predict
      {
        name = "m";
        states = Array.sub states 0 (min 64 batch);
        xs = Mat.init (min 64 batch) dim (fun i j -> Mat.get xs i j);
      }
  in
  let crep =
    S.Protocol.Predicted
      {
        means = Array.sub bm 0 (min 64 batch);
        sds = Array.sub bs 0 (min 64 batch);
      }
  in
  let wire_of write =
    let p = Filename.temp_file "cbmf_codec_bench" ".bin" in
    let fd = Unix.openfile p [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
    write fd;
    Unix.close fd;
    let ic = open_in_bin p in
    let body = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sys.remove p;
    body
  in
  let legacy_req fd = S.Protocol.write_frame fd (S.Protocol.encode_request creq) in
  let legacy_rep fd = S.Protocol.write_frame fd (S.Protocol.encode_reply crep) in
  let zc_req fd = S.Protocol.write_request fd creq in
  let zc_rep fd = S.Protocol.write_reply fd crep in
  let wire_identical =
    String.equal (wire_of legacy_req) (wire_of zc_req)
    && String.equal (wire_of legacy_rep) (wire_of zc_rep)
  in
  if not wire_identical then begin
    Format.fprintf fmt
      "  SMOKE FAIL: zero-copy frames differ from the legacy wire bytes@.";
    exit 1
  end;
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let frames = if smoke then 200 else 2000 in
  let alloc_window write =
    let a0 = Gc.allocated_bytes () in
    for _ = 1 to frames do
      write devnull
    done;
    (Gc.allocated_bytes () -. a0) /. float_of_int frames
  in
  (* Min over interleaved windows: a window now and then reads several
     KB per frame high, never low, so a single window per path could
     report the zero-copy writer as the larger allocator. *)
  let windows = 5 in
  let paths = [| legacy_req; zc_req; legacy_rep; zc_rep |] in
  let best = Array.make (Array.length paths) infinity in
  Array.iter (fun write -> write devnull) paths;
  for _ = 1 to windows do
    Array.iteri
      (fun i write -> best.(i) <- Float.min best.(i) (alloc_window write))
      paths
  done;
  let req_legacy_b = best.(0) and req_zc_b = best.(1) in
  let rep_legacy_b = best.(2) and rep_zc_b = best.(3) in
  Unix.close devnull;
  Format.fprintf fmt
    "  predict_batch (%d pts)  naive %10.1f pts/s   batched %10.1f pts/s   \
     %5.2fx@."
    batch (pps naive_s) (pps batched_s) (naive_s /. batched_s);
  Format.fprintf fmt
    "  codec request frame     legacy %8.0f B      zero-copy %8.0f B    \
     %5.2fx@."
    req_legacy_b req_zc_b (req_legacy_b /. req_zc_b);
  Format.fprintf fmt
    "  codec reply frame       legacy %8.0f B      zero-copy %8.0f B    \
     %5.2fx@."
    rep_legacy_b rep_zc_b (rep_legacy_b /. rep_zc_b);
  Format.fprintf fmt
    "  registry                cold %10.6f s      warm %12.2e s      %5.0fx@."
    cold_s warm_s (cold_s /. warm_s);
  let oc = open_out "BENCH_serve.json" in
  Printf.fprintf oc
    "{\n\
    \  \"batch\": %d,\n\
    \  \"n_active\": %d,\n\
    \  \"n_states\": %d,\n\
    \  \"naive_pts_per_s\": %.1f,\n\
    \  \"batched_pts_per_s\": %.1f,\n\
    \  \"batched_speedup\": %.4f,\n\
    \  \"cold_load_s\": %.6f,\n\
    \  \"warm_hit_s\": %.9f,\n\
    \  \"warm_speedup\": %.1f,\n\
    \  \"codec\": {\n\
    \    \"frames\": %d,\n\
    \    \"request_legacy_bytes_per_frame\": %.0f,\n\
    \    \"request_zero_copy_bytes_per_frame\": %.0f,\n\
    \    \"request_alloc_reduction\": %.2f,\n\
    \    \"reply_legacy_bytes_per_frame\": %.0f,\n\
    \    \"reply_zero_copy_bytes_per_frame\": %.0f,\n\
    \    \"reply_alloc_reduction\": %.2f,\n\
    \    \"wire_identical\": %b\n\
    \  },\n\
    \  \"bit_identical\": true\n\
     }\n"
    batch a k (pps naive_s) (pps batched_s) (naive_s /. batched_s) cold_s
    warm_s (cold_s /. warm_s) frames req_legacy_b req_zc_b
    (req_legacy_b /. req_zc_b)
    rep_legacy_b rep_zc_b
    (rep_legacy_b /. rep_zc_b)
    wire_identical;
  close_out oc;
  Format.fprintf fmt "  [wrote BENCH_serve.json]@.";
  if smoke then begin
    let ic = open_in "BENCH_serve.json" in
    let body = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let has needle =
      let nl = String.length needle and bl = String.length body in
      let rec scan i =
        if i + nl > bl then false
        else if String.sub body i nl = needle then true
        else scan (i + 1)
      in
      scan 0
    in
    let required =
      [ "\"batch\""; "\"n_active\""; "\"n_states\""; "\"naive_pts_per_s\"";
        "\"batched_pts_per_s\""; "\"batched_speedup\""; "\"cold_load_s\"";
        "\"warm_hit_s\""; "\"warm_speedup\""; "\"codec\"";
        "\"request_alloc_reduction\""; "\"reply_alloc_reduction\"";
        "\"wire_identical\": true"; "\"bit_identical\": true" ]
    in
    let missing = List.filter (fun key -> not (has key)) required in
    if missing <> [] then begin
      Format.fprintf fmt "  SMOKE FAIL: missing %s@."
        (String.concat ", " missing);
      exit 1
    end;
    if req_zc_b >= req_legacy_b || rep_zc_b >= rep_legacy_b then begin
      Format.fprintf fmt
        "  SMOKE FAIL: zero-copy framing did not reduce allocation \
         (request %.0f -> %.0f B, reply %.0f -> %.0f B)@."
        req_legacy_b req_zc_b rep_legacy_b rep_zc_b;
      exit 1
    end;
    Format.fprintf fmt
      "  smoke OK: schema valid, batched = naive bitwise, zero-copy \
       allocation reduced@."
  end

(* --- Serving under load: open-loop generator ------------------------ *)

(* Drives live servers (workers = 2, queue_cap = 4, shed-on-full
   admission) with an open-loop load generator at 1x / 2x / 4x of the
   calibrated single-connection service rate — once through the
   dynamic batcher (the shipping default) and once with the batcher
   disabled (window 0) — and writes BENCH_serve_load.json: per level,
   offered load, batched and unbatched accepted throughput (each the
   max over interleaved reps, so concurrent runtest load cancels out),
   client-observed p50/p99 latency of successful requests, and the
   shed rate.  Open-loop means send times are scheduled from the
   offered rate alone — a slow reply does not throttle the generator,
   so overload actually lands on the admission queue instead of being
   absorbed by closed-loop back-pressure.  A closed-loop coalesce
   microbench follows: 32 persistent connections hammer one
   compute-heavy model through 32 worker threads, where the merged
   engine calls stream each state's covariance once per flush instead
   of once per request.  [smoke] shrinks the request budget, re-reads
   the JSON, and fails hard unless the schema holds, the 4x level shed
   requests (overload must surface as typed sheds, not latency
   collapse), the p99 of the requests the server did accept stayed
   bounded, batched throughput at 4x is no worse than unbatched, and
   the coalesce bench is bit-identical with speedup >= 1. *)
let run_serve_load ~smoke =
  section
    (if smoke then
       "serve-load (smoke: schema + typed sheds + batched >= unbatched at 4x)"
     else "serve-load (open-loop 1x/2x/4x batched vs unbatched + coalesce)");
  let module S = Cbmf_serve in
  let open Cbmf_linalg in
  let rng = Cbmf_prob.Rng.create 29 in
  let dim = 8 and k = 4 in
  let mk_model a =
    {
      S.Model.input_dim = dim;
      n_states = k;
      terms =
        Array.init a (fun j ->
            if j = 0 then Cbmf_basis.Term.Constant
            else if j <= dim then Cbmf_basis.Term.Linear ((j - 1) mod dim)
            else Cbmf_basis.Term.Square ((j - 1) mod dim));
      col_means = Mat.init k a (fun _ _ -> 0.1 *. Cbmf_prob.Rng.gaussian rng);
      col_scales = Array.init a (fun j -> 1.0 +. (0.1 *. float_of_int (j mod 5)));
      y_means = Array.init k (fun _ -> Cbmf_prob.Rng.gaussian rng);
      y_scale = 2.0;
      mu = Mat.init a k (fun _ _ -> Cbmf_prob.Rng.gaussian rng);
      lambda = Array.make a 1.0;
      r = Mat.init k k (fun i j -> if i = j then 1.0 else 0.5);
      sigma0 = 0.1;
      cov =
        Array.init k (fun _ ->
            Mat.init a a (fun i j ->
                if i = j then 1.0 else 0.01 *. float_of_int ((i + j) mod 7)));
    }
  in
  (* Enough active terms that engine compute (not framing) dominates a
     request, so coalescing has something real to amortize. *)
  let a = 320 in
  let model = mk_model a in
  (match S.Model.validate model with
  | Ok () -> ()
  | Error e ->
      Format.fprintf fmt "  SMOKE FAIL: synthetic model invalid: %s@." e;
      exit 1);
  let batch = 8 in
  let xs = Mat.init batch dim (fun _ _ -> Cbmf_prob.Rng.gaussian rng) in
  let states = Array.init batch (fun i -> i mod k) in
  let dir = Filename.temp_file "cbmf_serve_load" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  (* 8 workers: overload still sheds (capacity on this box is
     compute-bound, not worker-bound), but saturation now leaves
     several workers blocked in the batcher at once, so the merged
     calls genuinely coalesce instead of topping out at pairs. *)
  let workers = 8 and queue_cap = 4 in
  let registry = S.Registry.create () in
  S.Registry.put registry ~name:"m" model;
  (* Two identical servers, differing only in the batcher: window 0
     disables coalescing (the engine called inline per request); the
     other runs the shipping default window. *)
  let start_load_server ~tag ~window =
    S.Server.start
      ~config:
        {
          S.Server.default_config with
          workers;
          queue_cap;
          timeout = 5.0;
          batch_window_us = window;
        }
      ~registry
      (Unix.ADDR_UNIX (Filename.concat dir (tag ^ ".sock")))
  in
  let unbatched_srv = start_load_server ~tag:"unbatched" ~window:0 in
  let batched_srv =
    start_load_server ~tag:"batched"
      ~window:S.Server.default_config.batch_window_us
  in
  let one_request addr () =
    (* Fresh connection per request: connect, one predict, close — the
       open-loop generator models independent arrivals, not sessions. *)
    match S.Client.connect ~timeout:5.0 addr with
    | exception _ -> `Lost
    | c ->
        Fun.protect
          ~finally:(fun () -> try S.Client.close c with _ -> ())
          (fun () ->
            match S.Client.predict_typed c ~name:"m" ~states ~xs with
            | Ok _ -> `Ok
            | Error (S.Client.Overloaded _) -> `Shed
            | Error _ -> `Lost
            | exception _ -> `Lost)
  in
  (* Calibrate: sequential closed-loop rate over one connection against
     the unbatched server (a solo closed-loop request on the batched
     one would pay the idle-edge window wait on every send and
     understate capacity).  This under-counts true 2-worker capacity
     (it includes client-side round-trip overhead), so "4x" offered is
     conservatively past saturation. *)
  let calib_reqs = if smoke then 40 else 200 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to calib_reqs do
    ignore (one_request (S.Server.addr unbatched_srv) ())
  done;
  let base_rate = float_of_int calib_reqs /. (Unix.gettimeofday () -. t0) in
  let run_level ~tag addr mult =
    let offered = base_rate *. float_of_int mult in
    let n_threads = min 16 (4 * mult) in
    let total = (if smoke then 60 else 400) * mult in
    let lock = Mutex.create () in
    let ok = ref 0 and shed = ref 0 and lost = ref 0 in
    let lats = ref [] in
    let start = Unix.gettimeofday () in
    let worker tid =
      (* Thread [tid] owns arrivals tid, tid+T, tid+2T, ... of the
         global schedule; arrival j fires at start + j/offered whether
         or not earlier requests have finished. *)
      let j = ref tid in
      while !j < total do
        let due = start +. (float_of_int !j /. offered) in
        let now = Unix.gettimeofday () in
        if due > now then Thread.delay (due -. now);
        let s0 = Unix.gettimeofday () in
        let outcome = one_request addr () in
        let lat_us = (Unix.gettimeofday () -. s0) *. 1e6 in
        Mutex.lock lock;
        (match outcome with
        | `Ok ->
            incr ok;
            lats := lat_us :: !lats
        | `Shed -> incr shed
        | `Lost -> incr lost);
        Mutex.unlock lock;
        j := !j + n_threads
      done
    in
    let threads = List.init n_threads (fun tid -> Thread.create worker tid) in
    List.iter Thread.join threads;
    let wall = Unix.gettimeofday () -. start in
    let sorted = Array.of_list !lats in
    Array.sort compare sorted;
    let pct p =
      if Array.length sorted = 0 then 0.0
      else
        sorted.(min (Array.length sorted - 1)
                  (int_of_float (p *. float_of_int (Array.length sorted))))
    in
    let throughput = float_of_int !ok /. wall in
    let shed_rate = float_of_int !shed /. float_of_int total in
    Format.fprintf fmt
      "  %dx offered (%8.1f rps) %-9s  ok %4d  shed %4d  lost %4d  thru \
       %8.1f rps  p50 %8.0f us  p99 %8.0f us@."
      mult offered tag !ok !shed !lost throughput (pct 0.50) (pct 0.99);
    (mult, offered, total, !ok, !shed, !lost, throughput, pct 0.50, pct 0.99,
     shed_rate)
  in
  (* Interleaved max-of-reps per mode: alternating unbatched/batched
     runs at the same level means a background load spike penalizes
     both columns alike instead of biasing one.  A single run's
     throughput swings by ±30 % on a loaded host, so two reps per mode
     still let one unlucky batched pair fall below the unbatched best;
     four, with the mode that runs first alternating, make that a rare
     event. *)
  let reps = 4 in
  let thru (_, _, _, _, _, _, t, _, _, _) = t in
  let best results =
    List.fold_left
      (fun acc r -> if thru r > thru acc then r else acc)
      (List.hd results) (List.tl results)
  in
  let run_pair mult =
    let us = ref [] and bs = ref [] in
    let unbatched () =
      us := run_level ~tag:"unbatched" (S.Server.addr unbatched_srv) mult :: !us
    and batched () =
      bs := run_level ~tag:"batched" (S.Server.addr batched_srv) mult :: !bs
    in
    for rep = 1 to reps do
      if rep land 1 = 1 then (unbatched (); batched ())
      else (batched (); unbatched ())
    done;
    (best !bs, thru (best !us))
  in
  let levels = List.map run_pair [ 1; 2; 4 ] in
  let stop_server srv =
    (let c = S.Client.connect ~timeout:5.0 (S.Server.addr srv) in
     S.Client.shutdown c;
     S.Client.close c);
    S.Server.wait srv
  in
  stop_server unbatched_srv;
  stop_server batched_srv;
  (* --- Closed-loop coalesce microbench ------------------------------ *)
  (* 32 persistent connections, each a closed loop of small (8-point)
     predicts on one compute-heavy model, served by 32 worker threads.
     Unbatched, every request streams each of its states' AxA
     covariance blocks through the cache on its own; batched, the
     drainer's merged call streams them once per flush for every
     coalesced request.  Every reply is checked bit-identical to the
     local engine in both modes. *)
  let ca = 320 in
  let cmodel = mk_model ca in
  S.Registry.put registry ~name:"c" cmodel;
  let conns = 32 and cpts = 8 and cwindow = 800 in
  let creqs = if smoke then 12 else 40 in
  let cxs = Mat.init cpts dim (fun _ _ -> Cbmf_prob.Rng.gaussian rng) in
  let cstates = Array.init cpts (fun i -> i mod k) in
  let exp_m, exp_s = S.Engine.predict_batch cmodel ~states:cstates ~xs:cxs in
  let bits_eq xs ys =
    Array.length xs = Array.length ys
    && Array.for_all2
         (fun x y ->
           Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
         xs ys
  in
  let coalesce_run ~tag ~window =
    let server =
      S.Server.start
        ~config:
          {
            S.Server.default_config with
            workers = conns;
            queue_cap = 2 * conns;
            timeout = 30.0;
            batch_window_us = window;
            batch_max = 512;
          }
        ~registry
        (Unix.ADDR_UNIX (Filename.concat dir (tag ^ ".sock")))
    in
    let addr = S.Server.addr server in
    let lock = Mutex.create () in
    let identical = ref true and failed = ref 0 in
    let t0 = Unix.gettimeofday () in
    let threads =
      List.init conns (fun _ ->
          Thread.create
            (fun () ->
              let c = S.Client.connect ~timeout:30.0 addr in
              Fun.protect
                ~finally:(fun () -> try S.Client.close c with _ -> ())
                (fun () ->
                  for _ = 1 to creqs do
                    match
                      S.Client.predict_typed c ~name:"c" ~states:cstates
                        ~xs:cxs
                    with
                    | Ok (rm, rs) ->
                        if not (bits_eq rm exp_m && bits_eq rs exp_s) then begin
                          Mutex.lock lock;
                          identical := false;
                          Mutex.unlock lock
                        end
                    | Error _ | (exception _) ->
                        Mutex.lock lock;
                        incr failed;
                        Mutex.unlock lock
                  done))
            ())
    in
    List.iter Thread.join threads;
    let wall = Unix.gettimeofday () -. t0 in
    stop_server server;
    let rps = float_of_int (conns * creqs) /. wall in
    (rps, !identical && !failed = 0)
  in
  let cu = ref [] and cb = ref [] in
  for _ = 1 to reps do
    cu := coalesce_run ~tag:"coalesce-unbatched" ~window:0 :: !cu;
    cb := coalesce_run ~tag:"coalesce-batched" ~window:cwindow :: !cb
  done;
  let best_rps rs = List.fold_left (fun m (r, _) -> Float.max m r) 0.0 rs in
  let coalesce_unbatched = best_rps !cu and coalesce_batched = best_rps !cb in
  let coalesce_identical =
    List.for_all (fun (_, ok) -> ok) !cu && List.for_all (fun (_, ok) -> ok) !cb
  in
  let coalesce_speedup = coalesce_batched /. coalesce_unbatched in
  Format.fprintf fmt
    "  coalesce (%d conns x %d x %d pts)  unbatched %8.1f rps   batched \
     %8.1f rps   %5.2fx   bit-identical %b@."
    conns creqs cpts coalesce_unbatched coalesce_batched coalesce_speedup
    coalesce_identical;
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  let oc = open_out "BENCH_serve_load.json" in
  Printf.fprintf oc
    "{\n\
    \  \"workers\": %d,\n\
    \  \"queue_cap\": %d,\n\
    \  \"batch\": %d,\n\
    \  \"n_active\": %d,\n\
    \  \"base_rate_rps\": %.1f,\n\
    \  \"levels\": [\n"
    workers queue_cap batch a base_rate;
  List.iteri
    (fun i
         ( (mult, offered, sent, ok, shed, lost, thru, p50, p99, shed_rate),
           unbatched_thru ) ->
      Printf.fprintf oc
        "    { \"offered_x\": %d, \"offered_rps\": %.1f, \"sent\": %d, \
         \"ok\": %d, \"shed\": %d, \"lost\": %d, \"throughput_rps\": %.1f, \
         \"unbatched_throughput_rps\": %.1f, \"batched_speedup\": %.4f, \
         \"p50_us\": %.0f, \"p99_us\": %.0f, \"shed_rate\": %.4f }%s\n"
        mult offered sent ok shed lost thru unbatched_thru
        (thru /. Float.max unbatched_thru 1e-9)
        p50 p99 shed_rate
        (if i = 2 then "" else ","))
    levels;
  Printf.fprintf oc
    "  ],\n\
    \  \"coalesce\": {\n\
    \    \"connections\": %d,\n\
    \    \"requests_per_conn\": %d,\n\
    \    \"points_per_request\": %d,\n\
    \    \"n_active\": %d,\n\
    \    \"window_us\": %d,\n\
    \    \"unbatched_rps\": %.1f,\n\
    \    \"batched_rps\": %.1f,\n\
    \    \"speedup\": %.4f,\n\
    \    \"bit_identical\": %b\n\
    \  }\n\
     }\n"
    conns creqs cpts ca cwindow coalesce_unbatched coalesce_batched
    coalesce_speedup coalesce_identical;
  close_out oc;
  Format.fprintf fmt "  [wrote BENCH_serve_load.json]@.";
  if smoke then begin
    let ic = open_in "BENCH_serve_load.json" in
    let body = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let has needle =
      let nl = String.length needle and bl = String.length body in
      let rec scan i =
        if i + nl > bl then false
        else if String.sub body i nl = needle then true
        else scan (i + 1)
      in
      scan 0
    in
    let required =
      [ "\"workers\""; "\"queue_cap\""; "\"base_rate_rps\""; "\"levels\"";
        "\"offered_x\": 1"; "\"offered_x\": 2"; "\"offered_x\": 4";
        "\"throughput_rps\""; "\"unbatched_throughput_rps\"";
        "\"batched_speedup\""; "\"p50_us\""; "\"p99_us\""; "\"shed_rate\"";
        "\"coalesce\""; "\"speedup\""; "\"bit_identical\": true" ]
    in
    let missing = List.filter (fun key -> not (has key)) required in
    if missing <> [] then begin
      Format.fprintf fmt "  SMOKE FAIL: missing %s@."
        (String.concat ", " missing);
      exit 1
    end;
    let (_, _, _, ok4, shed4, _, thru4, _, p99_4, _), unbatched_thru4 =
      List.nth levels 2
    in
    if shed4 = 0 then begin
      Format.fprintf fmt
        "  SMOKE FAIL: 4x offered load produced zero typed sheds@.";
      exit 1
    end;
    if ok4 = 0 then begin
      Format.fprintf fmt "  SMOKE FAIL: 4x offered load served nothing@.";
      exit 1
    end;
    if p99_4 >= 5e6 then begin
      Format.fprintf fmt
        "  SMOKE FAIL: accepted-request p99 unbounded under overload \
         (%.0f us)@."
        p99_4;
      exit 1
    end;
    if thru4 < unbatched_thru4 then begin
      Format.fprintf fmt
        "  SMOKE FAIL: batched throughput %.1f rps below unbatched %.1f rps \
         at 4x offered load@."
        thru4 unbatched_thru4;
      exit 1
    end;
    if not coalesce_identical then begin
      Format.fprintf fmt
        "  SMOKE FAIL: coalesced replies not bit-identical to the local \
         engine@.";
      exit 1
    end;
    if coalesce_speedup < 1.0 then begin
      Format.fprintf fmt
        "  SMOKE FAIL: coalesce speedup %.2fx below 1x@." coalesce_speedup;
      exit 1
    end;
    Format.fprintf fmt
      "  smoke OK: schema valid, typed sheds at 4x with bounded p99, \
       batched >= unbatched, coalesce bit-identical (%.2fx)@."
      coalesce_speedup
  end

(* --- Front-end before/after kernels -------------------------------- *)

(* Times the PR's front-end hot paths against the frozen pre-PR
   implementations ([Legacy.Frontend], per-frequency MNA rebuilds),
   single-core, and writes BENCH_frontend.json: the Algorithm-1 CV
   grid with shared precomputation vs the per-cell re-materializing
   loop, incremental S-OMP vs per-step QR refits, split-stamp
   [Mna.ac_sweep] vs per-frequency [Mna.ac], and the end-to-end fit
   through the legacy vs current initializer.  Every kernel records a
   parity flag (identical supports / bit-identical curves and fitted
   coefficients); the run fails hard if any flag is false.  [smoke]
   swaps the LNA workload for a tiny synthetic instance, then re-reads
   the JSON and verifies the schema — this is part of the
   [bench-smoke] dune alias under [dune runtest]. *)
let run_frontend ~smoke =
  section
    (if smoke then "frontend (smoke: schema + oracle parity)"
     else "frontend (before/after front-end kernels, LNA workload)");
  let module Pool = Cbmf_parallel.Pool in
  let open Cbmf_linalg in
  Pool.set_default_size 1;
  let hash_floats = Cbmf_testkit.Seeded.hash_floats in
  let workload, d, init_config, somp_terms =
    if smoke then begin
      let rng = Cbmf_prob.Rng.create 7 in
      let k = 4 and n = 12 and m = 60 in
      let support = [| 2; 17; 41 |] in
      let design =
        Array.init k (fun _ ->
            Mat.init n m (fun _ j ->
                if j = 0 then 1.0 else Cbmf_prob.Rng.gaussian rng))
      in
      let response =
        Array.init k (fun s ->
            Array.init n (fun i ->
                let acc = ref (0.05 *. Cbmf_prob.Rng.gaussian rng) in
                Array.iteri
                  (fun si col ->
                    let c = 1.0 /. float_of_int (si + 1) in
                    let c = c *. (1.0 +. (0.3 *. sin (0.4 *. float_of_int s))) in
                    acc := !acc +. (c *. Mat.get design.(s) i col))
                  support;
                !acc))
      in
      let d = Cbmf_model.Dataset.create ~design ~response in
      let config =
        {
          Cbmf_core.Init.r0_grid = [| 0.6; 0.9 |];
          sigma0_grid = [| 0.1; 0.3 |];
          theta_max = 4;
          n_folds = 3;
          lambda_off = 1e-7;
        }
      in
      ("synthetic-smoke", d, config, 6)
    end
    else begin
      let data = data_for "lna" in
      let train = Workload.train_dataset data ~poi:0 ~n_per_state:12 in
      let _, std = Cbmf_core.Standardize.fit train in
      (* Wide grid, shallow passes: the regime where the shared fold /
         R-factor / norm precomputation pays (the per-cell greedy work
         itself is identical in both paths). *)
      let config =
        {
          Cbmf_core.Init.r0_grid = [| 0.5; 0.7; 0.9; 0.995 |];
          sigma0_grid = [| 0.1; 0.2; 0.3 |];
          theta_max = 6;
          n_folds = 4;
          lambda_off = 1e-7;
        }
      in
      (* 8 of the 12 samples/state: selection margins at every step are
         far above fp noise, so the support-parity flag is meaningful
         (a near-square fit would select on noise-level residuals). *)
      ("lna", std, config, 8)
    end
  in
  let reps = if smoke then 1 else 3 in
  let time_n f =
    f ();
    (* warm *)
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      f ()
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int reps
  in
  (* 1. Algorithm-1 CV grid: legacy per-cell loop vs shared precompute. *)
  let init_before_r = Legacy.Frontend.init_run ~config:init_config d in
  let init_after_r = Cbmf_core.Init.run ~config:init_config d in
  let init_identical =
    init_before_r.Cbmf_core.Init.support = init_after_r.Cbmf_core.Init.support
    && init_before_r.Cbmf_core.Init.theta = init_after_r.Cbmf_core.Init.theta
    && Int64.equal
         (Int64.bits_of_float init_before_r.Cbmf_core.Init.r0)
         (Int64.bits_of_float init_after_r.Cbmf_core.Init.r0)
    && Int64.equal
         (Int64.bits_of_float init_before_r.Cbmf_core.Init.sigma0)
         (Int64.bits_of_float init_after_r.Cbmf_core.Init.sigma0)
    && Int64.equal
         (Int64.bits_of_float init_before_r.Cbmf_core.Init.cv_error)
         (Int64.bits_of_float init_after_r.Cbmf_core.Init.cv_error)
  in
  let init_before =
    time_n (fun () -> ignore (Legacy.Frontend.init_run ~config:init_config d))
  in
  let init_after =
    time_n (fun () -> ignore (Cbmf_core.Init.run ~config:init_config d))
  in
  (* 2. S-OMP: incremental bordered-Cholesky refits vs per-step QR. *)
  let somp_before_r = Legacy.Frontend.somp_fit d ~n_terms:somp_terms in
  let somp_after_r = Cbmf_model.Somp.fit d ~n_terms:somp_terms in
  let somp_support_identical =
    somp_before_r.Cbmf_model.Somp.support = somp_after_r.Cbmf_model.Somp.support
  in
  let somp_coeffs_close =
    let a = somp_before_r.Cbmf_model.Somp.coeffs
    and b = somp_after_r.Cbmf_model.Somp.coeffs in
    let maxd = ref 0.0 and maxa = ref 0.0 in
    Array.iteri
      (fun i x ->
        maxd := Float.max !maxd (abs_float (x -. b.Mat.data.(i)));
        maxa := Float.max !maxa (abs_float x))
      a.Mat.data;
    !maxd <= 1e-8 *. (1.0 +. !maxa)
  in
  let somp_before =
    time_n (fun () -> ignore (Legacy.Frontend.somp_fit d ~n_terms:somp_terms))
  in
  let somp_after =
    time_n (fun () -> ignore (Cbmf_model.Somp.fit d ~n_terms:somp_terms))
  in
  (* 3. MNA frequency sweep: split-stamp reassembly vs full per-ω
     rebuild of the LNA small-signal netlist. *)
  let tb = (Workload.lna ()).Workload.testbench in
  let dim = Cbmf_circuit.Testbench.dim tb in
  let n_freqs = if smoke then 16 else 128 in
  let freqs =
    Array.init n_freqs (fun i -> 1.0e9 *. (1.0 +. (0.05 *. float_of_int i)))
  in
  let rng_x = Cbmf_prob.Rng.create 29 in
  let n_sweep = if smoke then 2 else 8 in
  let xs =
    Array.init n_sweep (fun _ ->
        Array.init dim (fun _ -> Cbmf_prob.Rng.gaussian rng_x))
  in
  let states =
    Array.init n_sweep (fun i ->
        i * 7 mod Cbmf_circuit.Testbench.n_states tb)
  in
  let sweep_naive () =
    Array.init n_sweep (fun i ->
        Cbmf_circuit.Lna.gain_curve_naive tb ~state:states.(i) xs.(i) ~freqs)
  in
  let sweep_fast () =
    Array.init n_sweep (fun i ->
        Cbmf_circuit.Lna.gain_curve tb ~state:states.(i) xs.(i) ~freqs)
  in
  let sweep_bit_identical =
    let cb = sweep_naive () and ca = sweep_fast () in
    Array.for_all2
      (fun a b ->
        Array.for_all2
          (fun x y ->
            Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
          a b)
      cb ca
  in
  let sweep_before = time_n (fun () -> ignore (sweep_naive ())) in
  let sweep_after = time_n (fun () -> ignore (sweep_fast ())) in
  (* 4. End-to-end fit through the legacy vs current initializer. *)
  let em_config =
    if smoke then { Cbmf_core.Em.default_config with max_iter = 3; tol = 1e-3 }
    else Cbmf_core.Cbmf.fast_config.Cbmf_core.Cbmf.em
  in
  let fit_config = { Cbmf_core.Cbmf.init = init_config; em = em_config } in
  let fit_legacy () =
    (* [Cbmf.fit] with the frozen initializer: same standardization,
       same σ0 floor, same EM — only the CV grid differs. *)
    let transform, std = Cbmf_core.Standardize.fit d in
    let init = Legacy.Frontend.init_run ~config:init_config std in
    let em_config =
      {
        em_config with
        Cbmf_core.Em.min_sigma0 =
          Float.max em_config.Cbmf_core.Em.min_sigma0
            (0.9 *. init.Cbmf_core.Init.cv_error);
      }
    in
    let _, post, _ =
      Cbmf_core.Em.run ~config:em_config std init.Cbmf_core.Init.prior
    in
    Cbmf_core.Standardize.unstandardize_coeffs transform
      (Cbmf_core.Posterior.coefficients post)
  in
  let fit_new () = (Cbmf_core.Cbmf.fit ~config:fit_config d).Cbmf_core.Cbmf.coeffs in
  let e2e_hash_before = hash_floats (fit_legacy ()).Mat.data in
  let e2e_hash_after = hash_floats (fit_new ()).Mat.data in
  let e2e_coeffs_identical = Int64.equal e2e_hash_before e2e_hash_after in
  let e2e_before = time_n (fun () -> ignore (fit_legacy ())) in
  let e2e_after = time_n (fun () -> ignore (fit_new ())) in
  Pool.set_default_size (Pool.env_domains ());
  let kernels =
    [ ("init-cv-grid", init_before, init_after);
      ("somp-fit", somp_before, somp_after);
      ("ac-sweep", sweep_before, sweep_after);
      ("fit-e2e", e2e_before, e2e_after) ]
  in
  List.iter
    (fun (name, before, after) ->
      Format.fprintf fmt "  %-18s before %10.4f s   after %10.4f s   %6.2fx@."
        name before after (before /. after))
    kernels;
  let parity =
    [ ("init_identical", init_identical);
      ("somp_support_identical", somp_support_identical);
      ("somp_coeffs_close", somp_coeffs_close);
      ("sweep_bit_identical", sweep_bit_identical);
      ("e2e_coeffs_identical", e2e_coeffs_identical) ]
  in
  List.iter
    (fun (name, ok) -> Format.fprintf fmt "  parity %-24s %b@." name ok)
    parity;
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Printf.bprintf buf "  \"workload\": %S,\n" workload;
  Printf.bprintf buf "  \"model_hash\": \"%Lx\",\n" e2e_hash_after;
  Buffer.add_string buf "  \"kernels\": [\n";
  List.iteri
    (fun i (name, before, after) ->
      Printf.bprintf buf
        "    {\"name\": %S, \"seconds_before\": %.6f, \"seconds_after\": \
         %.6f, \"speedup\": %.4f}%s\n"
        name before after (before /. after)
        (if i = List.length kernels - 1 then "" else ","))
    kernels;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf "  \"parity\": {\n";
  List.iteri
    (fun i (name, ok) ->
      Printf.bprintf buf "    \"%s\": %b%s\n" name ok
        (if i = List.length parity - 1 then "" else ","))
    parity;
  Buffer.add_string buf "  },\n";
  Printf.bprintf buf "  \"speedup_init_cv\": %.4f,\n" (init_before /. init_after);
  Printf.bprintf buf "  \"speedup_ac_sweep\": %.4f\n" (sweep_before /. sweep_after);
  Buffer.add_string buf "}\n";
  let oc = open_out "BENCH_frontend.json" in
  Buffer.output_buffer oc buf;
  close_out oc;
  Format.fprintf fmt "  [wrote BENCH_frontend.json]@.";
  let bad = List.filter (fun (_, ok) -> not ok) parity in
  if bad <> [] then begin
    Format.fprintf fmt "  FRONTEND FAIL: parity broken for %s@."
      (String.concat ", " (List.map fst bad));
    exit 1
  end;
  if smoke then begin
    let ic = open_in "BENCH_frontend.json" in
    let body = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let has needle =
      let nl = String.length needle and bl = String.length body in
      let rec scan i =
        if i + nl > bl then false
        else if String.sub body i nl = needle then true
        else scan (i + 1)
      in
      scan 0
    in
    let required =
      [ "\"workload\""; "\"model_hash\""; "\"kernels\"";
        "\"init-cv-grid\""; "\"somp-fit\""; "\"ac-sweep\""; "\"fit-e2e\"";
        "\"seconds_before\""; "\"seconds_after\""; "\"speedup\"";
        "\"parity\""; "\"init_identical\": true";
        "\"somp_support_identical\": true"; "\"somp_coeffs_close\": true";
        "\"sweep_bit_identical\": true"; "\"e2e_coeffs_identical\": true";
        "\"speedup_init_cv\""; "\"speedup_ac_sweep\"" ]
    in
    let missing = List.filter (fun key -> not (has key)) required in
    if missing <> [] then begin
      Format.fprintf fmt "  SMOKE FAIL: missing %s@."
        (String.concat ", " missing);
      exit 1
    end;
    Format.fprintf fmt "  smoke OK: schema valid, all parity flags true@."
  end

(* --- Synthetic scaling matrix -------------------------------------- *)

(* Scales the spec-driven synthetic workload over a (K, d) grid no
   physical testbench reaches — K up to 256 states, d up to 10⁵ device
   variables — and writes BENCH_synthetic.json: per cell, generation
   time, a budget-sized front-end fit, the structured posterior on the
   true support with the solver path Auto actually took (the
   dual/primal crossover moves through the grid as NK crosses aK), and
   batched serving throughput against the oracle-exact snapshot.  A
   small ground-truth recovery comparison (C-BMF vs the uncorrelated
   ablation at rho = 0.9, low budgets) rides along.  [quick] — smoke
   mode or CBMF_BENCH_QUICK=1 — shrinks the grid to seconds; smoke
   additionally re-reads the JSON and fails hard unless the schema
   holds and every cell records a dual/primal path. *)
let run_synth ~smoke =
  let module Synthetic = Cbmf_circuit.Synthetic in
  let module Pool = Cbmf_parallel.Pool in
  let quick = smoke || Sys.getenv_opt "CBMF_BENCH_QUICK" = Some "1" in
  section
    (if quick then "synth (quick: reduced synthetic scaling grid)"
     else "synth (synthetic scaling matrix: K x d, path per cell)");
  Pool.set_default_size 1;
  let active = 6 and rho = 0.9 in
  (* n/state is budget-sized per d so the grid sweeps the Auto
     crossover: primal where aK < NK strictly, dual elsewhere. *)
  let grid =
    if quick then [ (4, 24, 10); (8, 600, 3) ]
    else
      [ (32, 1_000, 10); (32, 10_000, 6); (32, 100_000, 4);
        (128, 1_000, 10); (128, 10_000, 6); (128, 100_000, 4);
        (256, 1_000, 10); (256, 10_000, 6); (256, 100_000, 4) ]
  in
  let now () = Unix.gettimeofday () in
  let run_cell (k, d, n_per_state) =
    let spec =
      { Synthetic.k; m = d + 1; d; active_per_state = active; rho;
        noise_sigma = 0.05; density = 0.2; seed = 33 }
    in
    let t0 = now () in
    let truth = Synthetic.truth spec in
    let train = Synthetic.dataset truth ~n_per_state in
    let gen_s = now () -. t0 in
    let t0 = now () in
    let path = Recovery.posterior_path truth train in
    let posterior_s = now () -. t0 in
    let fit_config =
      {
        Cbmf_core.Cbmf.init =
          {
            Cbmf_core.Init.r0_grid = [| rho |];
            sigma0_grid = [| 0.1 |];
            theta_max = active + 2;
            n_folds = 2;
            lambda_off = 1e-7;
          };
        em = { Cbmf_core.Em.default_config with max_iter = 5; tol = 1e-3 };
      }
    in
    (* The front-end fit cost grows superlinearly in K (the CV grid's
       Bayesian greedy solves couple all states), so the budget-sized
       fit is timed only where it finishes in minutes; -1 marks a
       skipped cell.  The posterior/path and serving columns — the
       scaling claims under test — are measured at every cell. *)
    let do_fit = k <= 32 || k * d <= 3_000_000 in
    let fit_s =
      if do_fit then begin
        let t0 = now () in
        ignore (Cbmf_core.Cbmf.fit ~config:fit_config train);
        now () -. t0
      end
      else -1.0
    in
    let n_batch = Int.max 256 (1_000_000 / d) in
    let model = Cbmf_serve.Model.of_synthetic truth in
    let xs, states = Synthetic.batch_inputs truth ~salt:0 ~n:n_batch in
    let t0 = now () in
    let means, _ = Cbmf_serve.Engine.predict_batch model ~states ~xs in
    let predict_s = now () -. t0 in
    if not (Array.for_all Float.is_finite means) then begin
      Format.fprintf fmt "  SYNTH FAIL: non-finite predictions at K=%d d=%d@."
        k d;
      exit 1
    end;
    if path <> "dual" && path <> "primal" then begin
      Format.fprintf fmt "  SYNTH FAIL: bad posterior path %S at K=%d d=%d@."
        path k d;
      exit 1
    end;
    let pts_per_s = float_of_int n_batch /. Float.max predict_s 1e-9 in
    let fit_str =
      if fit_s < 0.0 then "   skip" else Printf.sprintf "%7.2f" fit_s
    in
    Format.fprintf fmt
      "  K=%-4d d=%-7d n/st=%-3d gen %7.2f s   fit %s s   posterior \
       %8.4f s (%-6s)   predict %10.0f pts/s@."
      k d n_per_state gen_s fit_str posterior_s path pts_per_s;
    (k, d, spec.Synthetic.m, n_per_state, gen_s, fit_s, posterior_s, path,
     pts_per_s)
  in
  let cells = List.map run_cell grid in
  (* Ground-truth recovery: correlated fit vs the uncorrelated ablation
     on a low-budget rho = 0.9 workload. *)
  let rspec =
    { Synthetic.default_spec with
      Synthetic.k = 12; m = 31; d = 15; active_per_state = 4; rho;
      noise_sigma = 0.05; density = 0.2; seed = 5 }
  in
  let budgets = if quick then [| 4 |] else [| 4; 6; 8 |] in
  let rcells =
    Recovery.run_grid ~n_test:25
      ~methods:[ `Cbmf; `Uncorrelated ]
      ~specs:[| rspec |] ~budgets ()
  in
  Format.fprintf fmt "@.%a" Recovery.pp_cells rcells;
  let mean_f1 m =
    let sel =
      Array.of_list
        (List.filter
           (fun c -> c.Recovery.method_ = m)
           (Array.to_list rcells))
    in
    Array.fold_left (fun acc c -> acc +. c.Recovery.f1) 0.0 sel
    /. float_of_int (Array.length sel)
  in
  let f1_cbmf = mean_f1 `Cbmf and f1_unc = mean_f1 `Uncorrelated in
  Format.fprintf fmt
    "  recovery F1 (rho=%.1f, budgets %s): cbmf %.3f   uncorrelated %.3f@."
    rho
    (String.concat "," (List.map string_of_int (Array.to_list budgets)))
    f1_cbmf f1_unc;
  Pool.set_default_size (Pool.env_domains ());
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n";
  Printf.bprintf buf "  \"quick\": %b,\n" quick;
  Printf.bprintf buf "  \"active_per_state\": %d,\n" active;
  Printf.bprintf buf "  \"rho\": %.2f,\n" rho;
  Buffer.add_string buf "  \"cells\": [\n";
  List.iteri
    (fun i (k, d, m, n, gen_s, fit_s, posterior_s, path, pts) ->
      Printf.bprintf buf
        "    {\"k\": %d, \"d\": %d, \"m\": %d, \"n_per_state\": %d, \
         \"gen_s\": %.4f, \"fit_s\": %.4f, \"posterior_s\": %.6f, \
         \"posterior_path\": %S, \"predict_pts_per_s\": %.1f}%s\n"
        k d m n gen_s fit_s posterior_s path pts
        (if i = List.length cells - 1 then "" else ","))
    cells;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf "  \"recovery\": {\n";
  Printf.bprintf buf "    \"rho\": %.2f,\n" rho;
  Printf.bprintf buf "    \"budgets\": [%s],\n"
    (String.concat ", " (List.map string_of_int (Array.to_list budgets)));
  Printf.bprintf buf "    \"f1_cbmf\": %.4f,\n" f1_cbmf;
  Printf.bprintf buf "    \"f1_uncorrelated\": %.4f,\n" f1_unc;
  Printf.bprintf buf "    \"f1_gap\": %.4f\n" (f1_cbmf -. f1_unc);
  Buffer.add_string buf "  }\n";
  Buffer.add_string buf "}\n";
  let oc = open_out "BENCH_synthetic.json" in
  Buffer.output_buffer oc buf;
  close_out oc;
  Format.fprintf fmt "  [wrote BENCH_synthetic.json]@.";
  if smoke then begin
    let ic = open_in "BENCH_synthetic.json" in
    let body = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let has needle =
      let nl = String.length needle and bl = String.length body in
      let rec scan i =
        if i + nl > bl then false
        else if String.sub body i nl = needle then true
        else scan (i + 1)
      in
      scan 0
    in
    let required =
      [ "\"quick\""; "\"active_per_state\""; "\"rho\""; "\"cells\"";
        "\"k\""; "\"d\""; "\"m\""; "\"n_per_state\""; "\"gen_s\"";
        "\"fit_s\""; "\"posterior_s\""; "\"posterior_path\"";
        "\"predict_pts_per_s\""; "\"recovery\""; "\"budgets\"";
        "\"f1_cbmf\""; "\"f1_uncorrelated\""; "\"f1_gap\"" ]
    in
    let missing = List.filter (fun key -> not (has key)) required in
    if missing <> [] then begin
      Format.fprintf fmt "  SMOKE FAIL: missing %s@."
        (String.concat ", " missing);
      exit 1
    end;
    (* The quick grid is sized to exercise both solver paths. *)
    if not (has "\"posterior_path\": \"dual\"") then begin
      Format.fprintf fmt "  SMOKE FAIL: no dual-path cell@.";
      exit 1
    end;
    if not (has "\"posterior_path\": \"primal\"") then begin
      Format.fprintf fmt "  SMOKE FAIL: no primal-path cell@.";
      exit 1
    end;
    Format.fprintf fmt "  smoke OK: schema valid, both paths present@."
  end

(* --- Active-learning loop: incremental update cost + parity -------- *)

(* Times the streaming rank-one updater against a from-scratch
   factorization and writes BENCH_active.json: per cell, the full
   refit cost ([Update.create], a fresh aK x aK Cholesky), the
   per-sample append cost ([Update.append], one rank-one update), the
   speedup, and the mu/NLML parity of the appended state against both
   a fresh updater and the [`Primal] posterior on the grown dataset;
   plus the acquisition loop's FNV hash at 1/2/4 domains.  [smoke]
   shrinks the sizes, re-reads the JSON, validates the schema and
   fails hard unless incremental < refit, parity <= 1e-8 and the loop
   hashes match across domain counts.  The [active-bench-smoke] dune
   alias runs this under [dune runtest]. *)
let run_active ~smoke =
  section
    (if smoke then "active (smoke: update cost + parity + loop hash)"
     else "active (streaming update vs refit, loop domain matrix)");
  let module Pool = Cbmf_parallel.Pool in
  let module Synthetic = Cbmf_circuit.Synthetic in
  let module Update = Cbmf_active.Update in
  let module Sim = Cbmf_active.Sim in
  let module Loop = Cbmf_active.Loop in
  let open Cbmf_linalg in
  let open Cbmf_model in
  let reps = if smoke then 3 else 5 in
  let time_min f =
    f ();
    let best = ref infinity in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      f ();
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    !best
  in
  let cells = if smoke then [ (8, 21, 10) ] else [ (32, 41, 20); (64, 41, 20) ] in
  let buf = Buffer.create 4096 in
  Printf.bprintf buf "{\n  \"smoke\": %b,\n  \"cells\": [\n" smoke;
  let n_base = 10 and extra = 4 in
  List.iteri
    (fun ci (k, m, d) ->
      let spec =
        { Synthetic.default_spec with
          Synthetic.k; m; d;
          active_per_state = 4;
          noise_sigma = 0.05;
          seed = 3 + ci }
      in
      let truth = Synthetic.truth spec in
      let full = Synthetic.dataset truth ~n_per_state:(n_base + extra) in
      let base = Dataset.truncate_samples full ~n:n_base in
      let active = Array.init m Fun.id in
      let prior =
        Cbmf_core.Prior.create ~lambda:(Array.make m 1.0)
          ~r:(Cbmf_core.Prior.r_of_r0 ~n_states:k ~r0:0.5)
          ~sigma0:0.1
      in
      (* full refit = fresh aK x aK assembly + factorization *)
      let refit_s = time_min (fun () -> ignore (Update.create base prior ~active)) in
      (* per-sample append: k rank-one updates per round, averaged *)
      let append_rounds = extra in
      let append_s =
        let upd = ref (Update.create base prior ~active) in
        let t =
          time_min (fun () ->
              upd := Update.create base prior ~active;
              for i = n_base to n_base + append_rounds - 1 do
                for s = 0 to k - 1 do
                  Update.append !upd ~state:s
                    ~row:(Mat.row (Dataset.state_design full s) i)
                    ~y:(Vec.get (Dataset.state_response full s) i)
                done
              done)
        in
        (t -. refit_s) /. float_of_int (append_rounds * k)
      in
      (* parity of the appended state on the grown dataset *)
      let upd = Update.create base prior ~active in
      for i = n_base to n_base + extra - 1 do
        for s = 0 to k - 1 do
          Update.append upd ~state:s
            ~row:(Mat.row (Dataset.state_design full s) i)
            ~y:(Vec.get (Dataset.state_response full s) i)
        done
      done;
      let reference =
        Cbmf_core.Posterior.compute ~need_sigma:false ~path:`Primal full prior
          ~active
      in
      let scale = Mat.max_abs reference.Cbmf_core.Posterior.mu in
      let parity_mu =
        Mat.max_abs (Mat.sub reference.Cbmf_core.Posterior.mu (Update.mean upd))
        /. (1.0 +. scale)
      in
      let parity_nlml =
        abs_float (reference.Cbmf_core.Posterior.nlml -. Update.nlml upd)
        /. (1.0 +. abs_float reference.Cbmf_core.Posterior.nlml)
      in
      let parity_ok = parity_mu <= 1e-8 && parity_nlml <= 1e-8 in
      let speedup = refit_s /. Float.max append_s 1e-12 in
      Format.fprintf fmt
        "  k=%-3d m=%-3d aK=%-5d refit %8.2f ms  append %8.4f ms/sample  \
         speedup %7.1fx  parity(mu %.1e, nlml %.1e) %s@."
        k m (m * k) (1e3 *. refit_s) (1e3 *. append_s) speedup parity_mu
        parity_nlml
        (if parity_ok then "ok" else "FAIL");
      Printf.bprintf buf
        "    { \"k\": %d, \"m\": %d, \"a\": %d, \"n_base\": %d, \"refit_s\": \
         %.6f, \"append_s\": %.8f, \"speedup\": %.1f, \"incremental_faster\": \
         %b, \"parity_mu\": %.3e, \"parity_nlml\": %.3e, \"parity_ok\": %b }%s\n"
        k m m n_base refit_s append_s speedup
        (append_s < refit_s)
        parity_mu parity_nlml parity_ok
        (if ci = List.length cells - 1 then "" else ","))
    cells;
  Buffer.add_string buf "  ],\n";
  (* acquisition-loop hash across domain counts *)
  let loop_spec =
    { Synthetic.default_spec with
      Synthetic.k = (if smoke then 4 else 8);
      m = 11; d = 7;
      active_per_state = 4;
      noise_sigma = 0.05;
      seed = 44 }
  in
  let loop_config =
    { Loop.default_config with
      Loop.n0 = 4;
      rounds = (if smoke then 4 else 8);
      pool_size = 8;
      resync_every = 3;
      em = { Cbmf_core.Em.default_config with max_iter = 6; tol = 1e-3 } }
  in
  let loop_prior0 =
    Cbmf_core.Prior.create
      ~lambda:(Array.make loop_spec.Synthetic.m 1.0)
      ~r:
        (Cbmf_core.Prior.r_of_r0 ~n_states:loop_spec.Synthetic.k ~r0:0.5)
      ~sigma0:0.2
  in
  let loop_hash () =
    let res =
      Loop.run ~config:loop_config
        ~sim:(Sim.of_synthetic (Synthetic.truth loop_spec))
        ~prior0:loop_prior0 ()
    in
    let acc =
      Cbmf_testkit.Seeded.hash_floats_acc Cbmf_testkit.Seeded.fnv_offset
        res.Loop.coeffs.Mat.data
    in
    Cbmf_testkit.Seeded.hash_floats_acc acc
      (Array.map (fun l -> l.Loop.nlml) res.Loop.logs)
  in
  let hashes =
    List.map
      (fun n ->
        Pool.set_default_size n;
        let h = loop_hash () in
        Pool.set_default_size (Pool.env_domains ());
        (n, h))
      [ 1; 2; 4 ]
  in
  let h1 = snd (List.hd hashes) in
  let invariant = List.for_all (fun (_, h) -> Int64.equal h h1) hashes in
  Format.fprintf fmt "  loop hash at 1/2/4 domains: %s@."
    (if invariant then "bit-identical" else "MISMATCH");
  Printf.bprintf buf "  \"loop\": { \"k\": %d, \"m\": %d, \"rounds\": %d, %s, \
                      \"domain_invariant\": %b }\n"
    loop_spec.Synthetic.k loop_spec.Synthetic.m loop_config.Loop.rounds
    (String.concat ", "
       (List.map
          (fun (n, h) -> Printf.sprintf "\"hash_%d\": \"%Lx\"" n h)
          hashes))
    invariant;
  Buffer.add_string buf "}\n";
  let oc = open_out "BENCH_active.json" in
  Buffer.output_buffer oc buf;
  close_out oc;
  Format.fprintf fmt "  [wrote BENCH_active.json]@.";
  if smoke then begin
    let ic = open_in "BENCH_active.json" in
    let body = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let has needle =
      let nl = String.length needle and bl = String.length body in
      let rec scan i =
        if i + nl > bl then false
        else if String.sub body i nl = needle then true
        else scan (i + 1)
      in
      scan 0
    in
    let required =
      [ "\"smoke\""; "\"cells\""; "\"k\""; "\"m\""; "\"a\""; "\"n_base\"";
        "\"refit_s\""; "\"append_s\""; "\"speedup\"";
        "\"incremental_faster\": true"; "\"parity_mu\""; "\"parity_nlml\"";
        "\"parity_ok\": true"; "\"loop\""; "\"hash_1\""; "\"hash_2\"";
        "\"hash_4\""; "\"domain_invariant\": true" ]
    in
    let missing = List.filter (fun key -> not (has key)) required in
    if missing <> [] then begin
      Format.fprintf fmt "  SMOKE FAIL: missing %s@."
        (String.concat ", " missing);
      exit 1
    end;
    Format.fprintf fmt
      "  smoke OK: schema valid, incremental < refit, parity <= 1e-8, loop \
       domain-invariant@."
  end

(* --- Bechamel micro-benchmarks ------------------------------------- *)

let micro_dataset () =
  (* Dimension-reduced C-BMF instance: K = 32 states, N = 15 samples,
     M = 200 basis functions, planted sparse/correlated truth. *)
  let open Cbmf_linalg in
  let rng = Cbmf_prob.Rng.create 11 in
  let k = 32 and n = 15 and m = 200 in
  let support = [| 3; 20; 57; 101; 160 |] in
  let design =
    Array.init k (fun _ ->
        Mat.init n m (fun _ j ->
            if j = 0 then 1.0 else Cbmf_prob.Rng.gaussian rng))
  in
  let response =
    Array.init k (fun s ->
        Array.init n (fun i ->
            let acc = ref (2.0 +. (0.05 *. Cbmf_prob.Rng.gaussian rng)) in
            Array.iteri
              (fun si col ->
                let c = 1.0 /. float_of_int (si + 1) in
                let c = c *. (1.0 +. (0.2 *. sin (0.2 *. float_of_int s))) in
                acc := !acc +. (c *. Mat.get design.(s) i col))
              support;
            !acc))
  in
  Cbmf_model.Dataset.create ~design ~response

let micro () =
  section "Bechamel micro-benchmarks (dimension-reduced instances)";
  let open Bechamel in
  let open Toolkit in
  let d = micro_dataset () in
  let _, std = Cbmf_core.Standardize.fit d in
  let prior =
    let lambda = Array.make std.Cbmf_model.Dataset.n_basis 1e-7 in
    Array.iter (fun j -> lambda.(j) <- 1.0) [| 2; 19; 56; 100; 159 |];
    Cbmf_core.Prior.create ~lambda
      ~r:(Cbmf_core.Prior.r_of_r0 ~n_states:32 ~r0:0.9)
      ~sigma0:0.1
  in
  let fast = Cbmf_core.Cbmf.fast_config in
  let tests =
    Test.make_grouped ~name:"cbmf"
      [ (* Kernels behind Tables 1 & 2: one full fit per method. *)
        Test.make ~name:"tab1-tab2.somp-fit"
          (Staged.stage (fun () -> ignore (Cbmf_model.Somp.fit d ~n_terms:10)));
        Test.make ~name:"tab1-tab2.cbmf-fit"
          (Staged.stage (fun () -> ignore (Cbmf_core.Cbmf.fit ~config:fast d)));
        (* Kernels behind Figures 2 & 3: one sweep point = posterior
           solves + EM refinement + greedy initialization. *)
        Test.make ~name:"fig2-fig3.posterior"
          (Staged.stage (fun () ->
               ignore
                 (Cbmf_core.Posterior.compute ~need_sigma:true std prior
                    ~active:(Array.init std.Cbmf_model.Dataset.n_basis Fun.id))));
        Test.make ~name:"fig2-fig3.em-refine"
          (Staged.stage (fun () ->
               ignore
                 (Cbmf_core.Em.run
                    ~config:{ Cbmf_core.Em.default_config with max_iter = 2 }
                    std prior)));
        Test.make ~name:"fig2-fig3.init-pass"
          (Staged.stage (fun () ->
               ignore
                 (Cbmf_core.Init.greedy_pass ~train:std ~test:None ~r0:0.9
                    ~sigma0:0.1 ~theta_max:10)))
      ]
  in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 3.0) () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name v acc -> (name, v) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
  List.iter
    (fun (name, v) ->
      match Analyze.OLS.estimates v with
      | Some [ t ] -> Format.fprintf fmt "  %-30s %12.3f ms/run@." name (t /. 1e6)
      | _ -> Format.fprintf fmt "  %-30s (no estimate)@." name)
    rows

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let quick = List.mem "quick" args in
  let full = List.mem "full" args in
  let smoke = List.mem "smoke" args in
  let args =
    List.filter (fun a -> a <> "quick" && a <> "full" && a <> "smoke") args
  in
  let all = args = [] in
  let want x = all || List.mem x args in
  let t0 = Unix.gettimeofday () in
  if want "tab1" then run_table ~quick "tab1" "lna";
  if want "tab2" then run_table ~quick "tab2" "mixer";
  if want "fig2" then run_figure ~quick ~full "fig2" "lna";
  if want "fig3" then run_figure ~quick ~full "fig3" "mixer";
  if want "ablation" then run_ablation ();
  if want "micro" then micro ();
  if want "par" then run_par ~smoke ~quick;
  if want "posterior" then run_posterior ~smoke;
  if want "serve" then run_serve ~smoke;
  if want "serve_load" then run_serve_load ~smoke;
  if want "frontend" then run_frontend ~smoke;
  if want "synth" then run_synth ~smoke;
  if want "active" then run_active ~smoke;
  Format.fprintf fmt "@.[bench complete in %.1f s wall clock]@."
    (Unix.gettimeofday () -. t0)
