(* End-to-end benchmark: one workload per process, every metric printed
   as "workload metric value unit", the result object as the last line.

     e2e.exe --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
             [--spans FILE] [--smoke] [--benchmark BENCHMARK.json]
     e2e.exe --compare OUTPUT_A OUTPUT_B

   See README.md for the workloads, metrics and bounds. *)

let workloads = [ "lna-fit"; "synth-k96-fit"; "synth-active"; "lna-serve" ]

let run_one ~workload ~smoke ~seed ~seconds ~trace =
  match workload with
  | "lna-fit" -> Fits.run ~synthetic:false ~smoke ~seed ~seconds ~trace
  | "synth-k96-fit" -> Fits.run ~synthetic:true ~smoke ~seed ~seconds ~trace
  | "synth-active" -> Active.run ~smoke ~seed ~seconds ~trace
  | "lna-serve" -> Serve.run ~smoke ~seed ~seconds ~trace
  | w -> invalid_arg ("unknown workload " ^ w)

(* Run [workload] in a child process and check its output: the result
   line parses, is correct and carries exactly the expected metrics,
   and every metric of both tables is printed with its unit. *)
let run_child ~args ~workload ~trace =
  let argv =
    Array.of_list (Sys.executable_name :: "--workload" :: workload :: args)
  in
  let ic = Unix.open_process_args_in Sys.executable_name argv in
  let lines = In_channel.input_lines ic in
  let status = Unix.close_process_in ic in
  List.iter print_endline lines;
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if status <> Unix.WEXITED 0 then problem "exited abnormally";
  let printed name unit =
    List.exists
      (fun l ->
        match String.split_on_char ' ' l with
        | [ w; n; v; u ] -> w = workload && n = name && u = unit && float_of_string_opt v <> None
        | _ -> false)
      lines
  in
  let tables = Report.end_to_end @ if trace then Report.per_layer else [] in
  List.iter
    (fun m ->
      if not (printed m.Report.name m.Report.unit) then
        problem "metric %s (%s) not printed" m.Report.name m.Report.unit)
    tables;
  (match List.rev lines with
  | last :: _ -> (
      match Json.parse last with
      | exception Failure e -> problem "result line: %s" e
      | j ->
          if Json.member "correct" j <> Json.Bool true then problem "not correct";
          let names =
            match Json.member "metrics" j with
            | Json.Obj kvs -> List.map fst kvs
            | _ -> []
          in
          let expected =
            List.map (fun m -> m.Report.name)
              (if trace then Report.per_layer else Report.end_to_end)
          in
          if names <> expected then problem "result metrics differ from the table")
  | [] -> problem "no output");
  List.iter (fun p -> Printf.printf "%s check FAIL: %s\n" workload p) !problems;
  !problems = []

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20.0 in
  let trace = ref 0 and spans = ref "" and smoke = ref false in
  let benchmark = ref "" and compare_a = ref "" and compare_b = ref "" in
  let spec =
    [ ("--workload", Arg.Set_string workload, " lna-fit | synth-k96-fit | synth-active | lna-serve | all");
      ("--seed", Arg.Set_int seed, " input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, " measured seconds per workload (default 20)");
      ("--trace", Arg.Set_int trace, " 1: add the traced repetition, report per-layer metrics");
      ("--spans", Arg.Set_string spans, " write the traced spans as JSON lines to this file");
      ("--smoke", Arg.Set smoke, " tiny shapes, for the e2e-smoke test");
      ("--benchmark", Arg.Set_string benchmark, " check this BENCHMARK.json against the metric tables");
      ("--compare", Arg.Tuple [ Arg.Set_string compare_a; Arg.Set_string compare_b ],
       " A B: compare two saved outputs") ]
  in
  let usage = "e2e.exe --workload <name|all> [options] | --compare A B" in
  Arg.parse (Arg.align spec) (fun a -> raise (Arg.Bad ("unexpected " ^ a))) usage;
  if !compare_a <> "" then exit (Report.compare_outputs !compare_a !compare_b);
  let traced = !trace = 1 in
  if !workload = "all" then begin
    let args =
      [ "--seed"; string_of_int !seed; "--seconds"; Printf.sprintf "%g" !seconds;
        "--trace"; string_of_int !trace ]
      @ (if !smoke then [ "--smoke" ] else [])
    in
    let ok =
      List.for_all Fun.id
        (List.map
           (fun w ->
             let args = if !spans = "" then args else args @ [ "--spans"; !spans ^ "." ^ w ] in
             run_child ~args ~workload:w ~trace:traced)
           workloads)
    in
    let table_ok = !benchmark = "" || Report.check_benchmark !benchmark in
    if not table_ok then print_endline "BENCHMARK.json differs from the metric tables";
    exit (if ok && table_ok then 0 else 1)
  end
  else if not (List.mem !workload workloads) then begin
    prerr_endline usage;
    exit 2
  end
  else begin
    Report.print_facts ~smoke:!smoke ~seed:!seed ~seconds:!seconds ~trace:traced;
    flush stdout;
    let r =
      run_one ~workload:!workload ~smoke:!smoke ~seed:!seed ~seconds:!seconds
        ~trace:traced
    in
    if !spans <> "" then Span.write_jsonl !spans;
    let correct = Report.print_result ~workload:!workload ~trace:traced r in
    exit (if correct then 0 else 1)
  end
