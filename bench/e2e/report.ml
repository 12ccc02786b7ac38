(* Metric table, statistics, host facts and the result printer.

   The end-to-end and per-layer tables here are the ones BENCHMARK.json
   lists; [check_benchmark] verifies the two agree.  Every workload
   reports every metric of both tables, so each name is defined for all
   four workloads (README.md gives the per-workload definitions). *)

type better = Lower | Higher

type metric = {
  name : string;
  unit : string;
  better : better;
  bound : float;  (** regression bound, share of the baseline median *)
}

let m ?(bound = 0.0) name unit better = { name; unit; better; bound }

let end_to_end =
  [ m "setup_s" "s" Lower ~bound:0.25;
    m "latency_p50_ms" "ms" Lower ~bound:0.25;
    m "throughput_per_s" "1/s" Higher ~bound:0.25;
    m "heldout_err" "ratio" Lower ~bound:0.15;
    m "peak_rss_mb" "MB" Lower ~bound:0.25 ]

let per_layer =
  [ m "inputs.generate_s" "s" Lower;
    m "standardize.fit_s" "s" Lower;
    m "init.run_s" "s" Lower;
    m "em.run_s" "s" Lower;
    m "em.mstep_s" "s" Lower;
    m "em.iterations" "count" Lower;
    m "em.recoveries" "count" Lower;
    m "posterior.compute_s" "s" Lower;
    m "posterior.compute_max_s" "s" Lower;
    m "posterior.calls" "count" Lower;
    m "posterior.dual_calls" "count" Lower;
    m "trace.coverage" "ratio" Higher;
    m "trace.overhead_pct" "%" Lower ]

let unit_of name =
  match List.find_opt (fun x -> x.name = name) (end_to_end @ per_layer) with
  | Some x -> x.unit
  | None -> invalid_arg ("Report.unit_of: unknown metric " ^ name)

(* --- Statistics ------------------------------------------------------ *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let v = f () in
  (now () -. t0, v)

(* Linear-interpolated quantile of an unsorted sample (failed requests
   enter latency samples as infinity). *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let frac = h -. float_of_int lo in
    if frac = 0.0 then a.(lo) else a.(lo) +. (frac *. (a.(lo + 1) -. a.(lo)))

let median = quantile 0.5

(* Set-ups repeated at least three times and for at least half a second,
   so that sub-millisecond set-ups still give a steady median; the
   median wall time and the last set-up's value. *)
let setups f =
  let start = now () in
  let rec go times =
    let dt, v = timed f in
    let times = dt :: times in
    if List.length times >= 3 && now () -. start >= 0.5 then (median times, v)
    else go times
  in
  go []

(* Timed repetitions of [f] until [seconds] of wall time have passed
   (at least [min_reps]).  [keep] digests each result outside the timed
   region, so large results do not pile up across repetitions. *)
let reps ~seconds ~min_reps ~keep f =
  let start = now () in
  let rec go acc i =
    if i >= min_reps && now () -. start >= seconds then List.rev acc
    else
      let dt, v = timed f in
      go ((dt, keep v) :: acc) (i + 1)
  in
  go [] 0

(* VmHWM of this process, in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> Float.nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* The [end_to_end] table for a workload that repeats one operation
   (a fit, a loop): [times] are the repetitions' wall times. *)
let repeated_op_metrics ~setup_s ~times ~heldout_err =
  [ ("setup_s", setup_s);
    ("latency_p50_ms", 1e3 *. median times);
    ("throughput_per_s", float_of_int (List.length times) /. List.fold_left ( +. ) 0.0 times);
    ("heldout_err", heldout_err);
    ("peak_rss_mb", peak_rss_mb ()) ]

(* --- Host facts ------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The checked-out commit, read from .git in the working directory (no
   git process, nothing outside the checkout); "unknown" elsewhere. *)
let commit () =
  try
    let head = String.trim (read_file ".git/HEAD") in
    if String.length head > 5 && String.sub head 0 5 = "ref: " then begin
      let ref_ = String.sub head 5 (String.length head - 5) in
      if Sys.file_exists (".git/" ^ ref_) then String.trim (read_file (".git/" ^ ref_))
      else
        let packed = String.split_on_char '\n' (read_file ".git/packed-refs") in
        match
          List.find_opt
            (fun l -> String.length l > 41 && String.sub l 41 (String.length l - 41) = ref_)
            packed
        with
        | Some l -> String.sub l 0 40
        | None -> "unknown"
    end
    else head
  with Sys_error _ -> "unknown"

(* Facts that must match for two results to be comparable. *)
let host_facts ~smoke =
  [ ("nproc", string_of_int (Domain.recommended_domain_count ()));
    ("domains", string_of_int (Cbmf_parallel.Pool.env_domains ()));
    ("ocaml", Sys.ocaml_version);
    ("mode", if smoke then "smoke" else "full") ]

(* --- Per-layer metrics from the traced repetition ----------------------- *)

(* The [per_layer] table, read off the recorded spans.  [coverage] is
   the share of the traced repetition's wall time its layer spans
   cover, [overhead_pct] how much slower it ran than untraced. *)
let layer_metrics ~coverage ~overhead_pct ~iterations ~recoveries =
  let post = Span.total "posterior.compute" and em = Span.total "em.run" in
  [ ("inputs.generate_s", Span.total "inputs.generate");
    ("standardize.fit_s", Span.total "standardize.fit");
    ("init.run_s", Span.total "init.run");
    ("em.run_s", em);
    ("em.mstep_s", em -. post);
    ("em.iterations", float_of_int iterations);
    ("em.recoveries", float_of_int recoveries);
    ("posterior.compute_s", post);
    ("posterior.compute_max_s", Span.max_duration "posterior.compute");
    ("posterior.calls", float_of_int (Span.count "posterior.compute"));
    ("posterior.dual_calls", float_of_int (Span.count_attr "posterior.compute" "dual"));
    ("trace.coverage", coverage);
    ("trace.overhead_pct", overhead_pct) ]

let overhead_pct ~traced_s ~untraced_s = 100.0 *. ((traced_s /. untraced_s) -. 1.0)

(* --- Results --------------------------------------------------------- *)

type result = {
  e2e : (string * float) list;  (** every [end_to_end] metric *)
  layers : (string * float) list;  (** every [per_layer] metric (traced runs) *)
  extra : (string * float * string) list;
      (** workload-specific numbers, printed but not gated *)
  attempted : int;
  failed : int;
  oracles : (string * bool) list;
  reps : int;
}

let print_facts ~smoke ~seed ~seconds ~trace =
  List.iter (fun (k, v) -> Printf.printf "host %s %s\n" k v) (host_facts ~smoke);
  Printf.printf "run commit %s\nrun seed %d\nrun seconds %g\nrun trace %d\n"
    (commit ()) seed seconds (if trace then 1 else 0)

let json_metrics kvs =
  String.concat ", "
    (List.map
       (fun (k, v) ->
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" k (Json.number v)
           (unit_of k))
       kvs)

(* Print every metric as "workload metric value unit", then the result
   object as the last line.  Returns whether the run is correct. *)
let print_result ~workload ~trace r =
  let line name v unit = Printf.printf "%s %s %s %s\n" workload name (Json.number v) unit in
  line "reps" (float_of_int r.reps) "count";
  List.iter (fun (k, v) -> line k v (unit_of k)) r.e2e;
  List.iter (fun (k, v, u) -> line k v u) r.extra;
  List.iter (fun (k, v) -> line k v (unit_of k)) r.layers;
  line "attempted" (float_of_int r.attempted) "count";
  line "failed" (float_of_int r.failed) "count";
  line "error_rate"
    (float_of_int r.failed /. float_of_int (max 1 r.attempted))
    "ratio";
  List.iter
    (fun (name, ok) ->
      Printf.printf "%s oracle %s %s\n" workload name (if ok then "ok" else "FAIL"))
    r.oracles;
  let metrics = if trace then r.layers else r.e2e in
  let expected = List.map (fun x -> x.name) (if trace then per_layer else end_to_end) in
  let correct =
    r.failed = 0 && r.attempted >= 1
    && List.for_all snd r.oracles
    && List.map fst metrics = expected
    && List.for_all (fun (_, v) -> Float.is_finite v) (r.e2e @ r.layers)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct r.attempted r.failed (json_metrics metrics);
  correct

(* --- Comparing two saved outputs -------------------------------------- *)

let parse_output path =
  let lines = String.split_on_char '\n' (read_file path) in
  let host = ref [] and run = ref [] and values = ref [] in
  (* "--workload all" repeats the facts once per workload. *)
  let fact facts k v = if not (List.mem_assoc k !facts) then facts := (k, v) :: !facts in
  List.iter
    (fun l ->
      match String.split_on_char ' ' l with
      | [ "host"; k; v ] -> fact host k v
      | [ "run"; k; v ] -> fact run k v
      | [ wl; k; v; u ] -> (
          match float_of_string_opt v with
          | Some f -> values := ((wl, k), (f, u)) :: !values
          | None -> ())
      | _ -> ())
    lines;
  (List.rev !host, List.rev !run, List.rev !values)

(* Print per (workload, metric) the change from [a] to [b] and, for
   gated metrics, whether it stays within the bound.  Results whose
   host facts differ are reported as not comparable (exit code 2). *)
let compare_outputs a b =
  let ha, ra, va = parse_output a and hb, rb, vb = parse_output b in
  let differing =
    List.filter (fun (k, v) -> List.assoc_opt k hb <> Some v) ha
    @ List.filter (fun (k, _) -> not (List.mem_assoc k ha)) hb
  in
  List.iter
    (fun (k, v) ->
      Printf.printf "run %s %s %s\n" k v
        (Option.value ~default:"-" (List.assoc_opt k rb)))
    ra;
  if differing <> [] then begin
    List.iter
      (fun (k, _) ->
        Printf.printf "not comparable: host %s differs (%s vs %s)\n" k
          (Option.value ~default:"-" (List.assoc_opt k ha))
          (Option.value ~default:"-" (List.assoc_opt k hb)))
      differing;
    2
  end
  else begin
    let regressions = ref 0 in
    List.iter
      (fun ((wl, k), (x, u)) ->
        match List.assoc_opt (wl, k) vb with
        | None -> ()
        | Some (y, _) ->
            let change = if x = 0.0 then 0.0 else (y -. x) /. Float.abs x in
            let verdict =
              match List.find_opt (fun e -> e.name = k) end_to_end with
              | None -> "-"
              | Some e ->
                  let worse = if e.better = Lower then change else -.change in
                  if worse > e.bound then (incr regressions; "REGRESSION")
                  else "ok"
            in
            Printf.printf "%s %s %s %s %s %+.2f%% %s\n" wl k (Json.number x)
              (Json.number y) u (100.0 *. change) verdict)
      va;
    if !regressions > 0 then 1 else 0
  end

(* BENCHMARK.json must list exactly the metric tables above. *)
let check_benchmark path =
  let j = Json.parse (read_file path) in
  let entries key =
    List.map
      (fun e ->
        ( Json.to_str (Json.member "name" e),
          Json.to_str (Json.member "unit" e),
          Json.to_str (Json.member "better" e),
          match Json.member "bound" e with Json.Num b -> b | _ -> 0.0 ))
      (Json.to_list (Json.member key j))
  in
  let table ms =
    List.map
      (fun x -> (x.name, x.unit, (if x.better = Lower then "lower" else "higher"), x.bound))
      ms
  in
  entries "end_to_end" = table end_to_end && entries "per_layer" = table per_layer
