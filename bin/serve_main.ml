(* Command-line driver for the model-serving subsystem: fit-and-save
   snapshots, run the socket server, poke a running server. *)

open Cmdliner
open Cbmf_serve

(* --- Address selection ------------------------------------------------ *)

let sockaddr ~socket ~port =
  match (socket, port) with
  | Some path, _ -> Unix.ADDR_UNIX path
  | None, Some p -> Unix.ADDR_INET (Unix.inet_addr_loopback, p)
  | None, None ->
      prerr_endline "cbmf_serve: pass --socket PATH or --port PORT";
      exit 2

let socket_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let port_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "port" ] ~docv:"PORT" ~doc:"TCP port on 127.0.0.1.")

(* --- fit: train a model and save its snapshot ------------------------- *)

let run_fit circuit out seed n_train quick =
  let w =
    match circuit with
    | "lna" -> Cbmf_experiments.Workload.lna ()
    | "mixer" -> Cbmf_experiments.Workload.mixer ()
    | name ->
        prerr_endline (Printf.sprintf "unknown circuit %S" name);
        exit 2
  in
  Printf.printf "Simulating %s (seed %d, %d samples/state)...\n%!"
    w.Cbmf_experiments.Workload.name seed n_train;
  let data =
    Cbmf_experiments.Workload.generate w ~seed ~n_train_max:n_train
      ~n_test_per_state:1
  in
  let train =
    Cbmf_experiments.Workload.train_dataset data ~poi:0 ~n_per_state:n_train
  in
  let config =
    if quick then Cbmf_core.Cbmf.fast_config else Cbmf_core.Cbmf.default_config
  in
  Printf.printf "Fitting...\n%!";
  let fitted = Cbmf_core.Cbmf.fit ~config train in
  let model =
    Model.of_fit
      ~dict:w.Cbmf_experiments.Workload.dictionary
      (Cbmf_core.Cbmf.fitted_view fitted)
  in
  Snapshot.save ~path:out model;
  Printf.printf "Saved %s: %d active terms, %d states, %d bytes\n" out
    (Model.n_active model) model.Model.n_states
    (String.length (Snapshot.encode model))

let fit_cmd =
  let circuit =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"CIRCUIT" ~doc:"lna or mixer.")
  in
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Snapshot output path.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Monte-Carlo seed.") in
  let n_train =
    Arg.(value & opt int 10 & info [ "n-train" ] ~doc:"Training samples per state.")
  in
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Fast (non-paper) fit settings.")
  in
  Cmd.v
    (Cmd.info "fit" ~doc:"Fit a C-BMF model and save a serving snapshot.")
    Term.(const run_fit $ circuit $ out $ seed $ n_train $ quick)

(* --- serve: run the server ------------------------------------------- *)

let parse_model_spec spec =
  match String.index_opt spec '=' with
  | Some i ->
      (String.sub spec 0 i, String.sub spec (i + 1) (String.length spec - i - 1))
  | None ->
      prerr_endline
        (Printf.sprintf "bad --model %S (expected NAME=SNAPSHOT_PATH)" spec);
      exit 2

(* Sharded serving: fork one full server per shard on
   "<socket>.shard-<i>", then route the pre-registered models to their
   consistent-hash owners over the wire.  The parent just supervises:
   it parks until a signal, then shuts the cluster down gracefully.
   Once the shards are forked, any failure to bring them up or load a
   model stops the cluster before exiting 1, so no shard outlives the
   parent. *)
let run_sharded ~config ~max_bytes ~shards ~models socket =
  let base_path =
    match socket with
    | Some p -> p
    | None ->
        prerr_endline "cbmf_serve: --shards needs --socket BASE_PATH";
        exit 2
  in
  let specs = List.map parse_model_spec models in
  let cluster = Shard.start ~config ~max_bytes ~shards ~base_path () in
  (try
     Shard.wait_ready cluster;
     Array.iter
       (function
         | Unix.ADDR_UNIX path -> Printf.printf "Listening on %s\n%!" path
         | _ -> ())
       (Shard.addrs cluster);
     let router = Shard.connect cluster in
     Fun.protect
       ~finally:(fun () -> Shard.close_router router)
       (fun () ->
         List.iter
           (fun (name, path) ->
             match
               Client.load_path (Shard.client_for router ~name) ~name ~path
             with
             | Ok _ ->
                 Printf.printf "Loaded %S -> %s on shard %d\n%!" name path
                   (Shard.route router ~name)
             | Error msg -> failwith (Printf.sprintf "load %S failed: %s" name msg))
           specs)
   with e ->
     prerr_endline
       ("cbmf_serve: "
       ^ match e with Failure msg -> msg | e -> Printexc.to_string e);
     Shard.stop cluster;
     exit 1);
  let stop_requested = ref false in
  let stop_on_signal _ = stop_requested := true in
  (try Sys.set_signal Sys.sigint (Sys.Signal_handle stop_on_signal)
   with Invalid_argument _ -> ());
  (try Sys.set_signal Sys.sigterm (Sys.Signal_handle stop_on_signal)
   with Invalid_argument _ -> ());
  while not !stop_requested do
    Thread.delay 0.2
  done;
  Shard.stop cluster;
  print_endline "Cluster stopped."

let run_serve socket port workers timeout max_mb queue_cap deadline
    drain_timeout retry_after_ms shards models =
  let config =
    {
      Server.default_config with
      workers;
      timeout;
      queue_cap;
      deadline;
      drain_timeout;
      retry_after_ms;
    }
  in
  let max_bytes = max_mb * 1024 * 1024 in
  if shards > 1 then run_sharded ~config ~max_bytes ~shards ~models socket
  else begin
    let addr = sockaddr ~socket ~port in
    let registry = Registry.create ~max_bytes () in
    List.iter
      (fun spec ->
        let name, path = parse_model_spec spec in
        Registry.add_path registry ~name path;
        Printf.printf "Registered %S -> %s (lazy)\n%!" name path)
      models;
    let server = Server.start ~config ~registry addr in
    (match Server.addr server with
    | Unix.ADDR_UNIX path -> Printf.printf "Listening on %s\n%!" path
    | Unix.ADDR_INET (host, p) ->
        Printf.printf "Listening on %s:%d\n%!" (Unix.string_of_inet_addr host) p);
    let stop_on_signal _ = Server.request_stop server in
    (try Sys.set_signal Sys.sigint (Sys.Signal_handle stop_on_signal)
     with Invalid_argument _ -> ());
    (try Sys.set_signal Sys.sigterm (Sys.Signal_handle stop_on_signal)
     with Invalid_argument _ -> ());
    Server.wait server;
    print_endline "Server stopped."
  end

let serve_cmd =
  let workers =
    Arg.(value & opt int 4 & info [ "workers" ] ~doc:"Worker threads.")
  in
  let timeout =
    Arg.(
      value & opt float 10.0
      & info [ "timeout" ] ~doc:"Per-request socket timeout, seconds.")
  in
  let max_mb =
    Arg.(
      value & opt int 256
      & info [ "max-mb" ] ~doc:"Registry budget for resident models, MiB.")
  in
  let queue_cap =
    Arg.(
      value
      & opt int Server.default_config.Server.queue_cap
      & info [ "queue-cap" ]
          ~doc:
            "Admission-queue capacity.  Connections arriving with the queue \
             full are shed: a typed overloaded reply with a retry hint, then \
             close — the acceptor never blocks.")
  in
  let deadline =
    Arg.(
      value
      & opt float Server.default_config.Server.deadline
      & info [ "deadline" ]
          ~doc:
            "Server-side per-request deadline budget in seconds (0 = none).  \
             A request's first budget starts at accept, so queue wait counts; \
             expired requests get a typed deadline-exceeded reply.")
  in
  let drain_timeout =
    Arg.(
      value
      & opt float Server.default_config.Server.drain_timeout
      & info [ "drain-timeout" ]
          ~doc:
            "Seconds to let in-flight requests finish on stop before \
             force-closing their connections.")
  in
  let retry_after_ms =
    Arg.(
      value
      & opt int Server.default_config.Server.retry_after_ms
      & info [ "retry-after-ms" ]
          ~doc:"Retry hint carried in shed (overloaded) replies.")
  in
  let shards =
    Arg.(
      value & opt int 1
      & info [ "shards" ]
          ~doc:
            "Run N server processes, models placed by consistent hash of \
             their name on $(b,--socket).shard-<i> sockets (requires \
             --socket).  Placement ignores reload generations, so hot \
             reloads never move a model.")
  in
  let models =
    Arg.(
      value & opt_all string []
      & info [ "model" ] ~docv:"NAME=PATH"
          ~doc:"Pre-register a snapshot (repeatable, loaded lazily).")
  in
  Cmd.v
    (Cmd.info "serve" ~doc:"Run the inference server.")
    Term.(
      const run_serve $ socket_t $ port_t $ workers $ timeout $ max_mb
      $ queue_cap $ deadline $ drain_timeout $ retry_after_ms $ shards
      $ models)

(* --- Client one-shots ------------------------------------------------- *)

let fail what msg =
  prerr_endline (Printf.sprintf "%s failed: %s" what msg);
  exit 1

(* One connection for one command.  A server that cannot be reached is
   a lost connection like any other: the typed message and exit 1. *)
let with_client ~what addr f =
  match Client.connect addr with
  | exception Unix.Unix_error (e, fn, _) ->
      fail what
        (Client.failure_to_string
           (Client.Connection_lost
              (Printf.sprintf "%s: %s" fn (Unix.error_message e))))
  | c -> Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let shard_base ~socket =
  match socket with
  | Some p -> p
  | None ->
      prerr_endline "cbmf_serve: --shards needs --socket BASE_PATH";
      exit 2

(* Name-routed one-shots against a sharded cluster: connect only to
   the shard the consistent hash owns [name] on. *)
let with_routed ~what ~socket ~port ~shards ~name f =
  let addr =
    if shards <= 1 then sockaddr ~socket ~port
    else
      Shard.shard_addr ~base_path:(shard_base ~socket)
        (Shard.place (Shard.ring shards) name)
  in
  with_client ~what addr f

(* Unnamed one-shots (ping, stats, shutdown) fan over every shard. *)
let each_shard ~what ~socket ~port ~shards f =
  if shards <= 1 then with_client ~what (sockaddr ~socket ~port) (f 0)
  else begin
    let base_path = shard_base ~socket in
    for i = 0 to shards - 1 do
      with_client ~what (Shard.shard_addr ~base_path i) (f i)
    done
  end

let shards_t =
  Arg.(
    value & opt int 1
    & info [ "shards" ]
        ~doc:
          "Talk to an N-shard cluster rooted at --socket BASE_PATH; \
           model-named requests go to the consistent-hash owner shard.")

let run_load socket port shards name path =
  with_routed ~what:"load" ~socket ~port ~shards ~name (fun c ->
      match Client.load_path c ~name ~path with
      | Ok (n_active, n_states, bytes) ->
          Printf.printf "Loaded %S: %d active terms, %d states, ~%d bytes\n"
            name n_active n_states bytes
      | Error msg -> fail "load" msg)

let load_cmd =
  let name_t =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME")
  in
  let path_t =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"SNAPSHOT")
  in
  Cmd.v
    (Cmd.info "load" ~doc:"Ask a running server to load a snapshot file.")
    Term.(const run_load $ socket_t $ port_t $ shards_t $ name_t $ path_t)

let run_predict socket port shards name state xspec =
  let x =
    String.split_on_char ',' xspec
    |> List.filter (fun s -> String.trim s <> "")
    |> List.map (fun s -> float_of_string (String.trim s))
    |> Array.of_list
  in
  let xs =
    Cbmf_linalg.Mat.unsafe_of_flat ~rows:1 ~cols:(Array.length x) x
  in
  with_routed ~what:"predict" ~socket ~port ~shards ~name (fun c ->
      match Client.predict_typed c ~name ~states:[| state |] ~xs with
      | Ok (means, sds) ->
          Printf.printf "mean = %.6g, sd = %.6g\n" means.(0) sds.(0)
      | Error f -> fail "predict" (Client.failure_to_string f))

let predict_cmd =
  let name_t =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME")
  in
  let state_t =
    Arg.(value & opt int 0 & info [ "state" ] ~doc:"Knob state index.")
  in
  let x_t =
    Arg.(
      required
      & opt (some string) None
      & info [ "x" ] ~docv:"V1,V2,..." ~doc:"Comma-separated input vector.")
  in
  Cmd.v
    (Cmd.info "predict" ~doc:"Predict one point against a loaded model.")
    Term.(
      const run_predict $ socket_t $ port_t $ shards_t $ name_t $ state_t
      $ x_t)

let run_ping socket port shards =
  each_shard ~what:"ping" ~socket ~port ~shards (fun i c ->
      match Client.ping c with
      | Ok generation ->
          if shards > 1 then
            Printf.printf "shard %d pong: generation %d\n" i generation
          else Printf.printf "pong: generation %d\n" generation
      | Error f -> fail "ping" (Client.failure_to_string f))

let ping_cmd =
  Cmd.v
    (Cmd.info "ping"
       ~doc:
         "Health-check a running server; prints its registry generation.")
    Term.(const run_ping $ socket_t $ port_t $ shards_t)

let run_reload socket port shards name path =
  with_routed ~what:"reload" ~socket ~port ~shards ~name (fun c ->
      match Client.reload_path c ~name ~path with
      | Ok (generation, n_active, n_states, bytes) ->
          Printf.printf
            "Reloaded %S (generation %d): %d active terms, %d states, ~%d \
             bytes\n"
            name generation n_active n_states bytes
      | Error f -> fail "reload" (Client.failure_to_string f))

let reload_cmd =
  let name_t =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME")
  in
  let path_t =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"SNAPSHOT")
  in
  Cmd.v
    (Cmd.info "reload"
       ~doc:
         "Hot-swap a served model from a snapshot file.  In-flight requests \
          finish on the old model; a bad snapshot is refused and the old \
          model keeps serving.")
    Term.(const run_reload $ socket_t $ port_t $ shards_t $ name_t $ path_t)

let run_stats socket port shards =
  each_shard ~what:"stats" ~socket ~port ~shards (fun i c ->
      match Client.stats c with
      | Ok json ->
          if shards > 1 then Printf.printf "shard %d: %s\n" i json
          else print_endline json
      | Error msg -> fail "stats" msg)

let stats_cmd =
  Cmd.v
    (Cmd.info "stats" ~doc:"Dump a running server's counters as JSON.")
    Term.(const run_stats $ socket_t $ port_t $ shards_t)

let run_shutdown socket port shards =
  each_shard ~what:"shutdown" ~socket ~port ~shards (fun _ c ->
      Client.shutdown c);
  print_endline "Shutdown requested."

let shutdown_cmd =
  Cmd.v
    (Cmd.info "shutdown" ~doc:"Stop a running server.")
    Term.(const run_shutdown $ socket_t $ port_t $ shards_t)

let () =
  let doc = "C-BMF model snapshot and inference serving." in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "cbmf_serve" ~doc)
          [ fit_cmd; serve_cmd; load_cmd; predict_cmd; ping_cmd; reload_cmd;
            stats_cmd; shutdown_cmd ]))
