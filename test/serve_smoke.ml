(* Serving smoke test.

   Run by the `serve-smoke` dune alias with CBMF_DOMAINS=2: fits a
   tiny LNA model, saves and reloads its snapshot (bit-identical),
   checks the batch engine against the scalar path and across domain
   counts, then drives a real server over a temp Unix socket — 100
   batched predict requests, a malformed frame, an unknown model, an
   injection-armed decode failure — validates the stats-JSON schema,
   hot-reloads the model under concurrent predict load (zero dropped
   requests, no torn model, generation accounting exact), and floods a
   small server past its queue (every outcome a served, bit-identical
   reply or a typed shed).  Exits nonzero on any failure. *)

open Cbmf_linalg
open Cbmf_serve

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.eprintf "serve-smoke FAIL: %s\n%!" name
  end

let bits_eq xs ys =
  Array.length xs = Array.length ys
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       xs ys

let () =
  check "CBMF_DOMAINS=2 honored" (Cbmf_parallel.Pool.env_domains () = 2);

  (* --- Tiny LNA fit -> serving model ------------------------------- *)
  let w = Cbmf_experiments.Workload.lna () in
  let data =
    Cbmf_experiments.Workload.generate w ~seed:3 ~n_train_max:4
      ~n_test_per_state:2
  in
  let train =
    Cbmf_experiments.Workload.train_dataset data ~poi:0 ~n_per_state:4
  in
  let fitted = Cbmf_core.Cbmf.fit ~config:Cbmf_core.Cbmf.fast_config train in
  let model =
    Model.of_fit
      ~dict:w.Cbmf_experiments.Workload.dictionary
      (Cbmf_core.Cbmf.fitted_view fitted)
  in
  check "model validates" (Model.validate model = Ok ());
  check "model has active terms" (Model.n_active model > 0);

  (* --- Snapshot round-trip ------------------------------------------ *)
  let dir = Filename.temp_file "cbmf_serve_smoke" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let snap = Filename.concat dir "lna.snap" in
  Snapshot.save ~path:snap model;
  let loaded = Snapshot.load ~path:snap in
  check "save/load bit-identical" (Model.equal loaded model);
  check "re-encode byte-identical"
    (String.equal (Snapshot.encode loaded) (Snapshot.encode model));

  (* --- Batch engine: scalar path and domain invariance -------------- *)
  let dim = model.Model.input_dim in
  let k = model.Model.n_states in
  let points =
    Array.concat
      (Array.to_list
         (Array.map
            (fun (s : Cbmf_circuit.Montecarlo.per_state) ->
              Array.init s.Cbmf_circuit.Montecarlo.xs.Mat.rows (fun i ->
                  Mat.row s.Cbmf_circuit.Montecarlo.xs i))
            data.Cbmf_experiments.Workload.test.Cbmf_circuit.Montecarlo.states))
  in
  let n = 130 (* spans three fan-out chunks *) in
  let xs =
    Mat.init n dim (fun i j -> points.(i mod Array.length points).(j))
  in
  let states = Array.init n (fun i -> i mod k) in
  let means2, sds2 = Engine.predict_batch model ~states ~xs in
  check "predictions finite"
    (Array.for_all Float.is_finite means2 && Array.for_all Float.is_finite sds2);
  Cbmf_parallel.Pool.set_default_size 1;
  let means1, sds1 = Engine.predict_batch model ~states ~xs in
  Cbmf_parallel.Pool.set_default_size 2;
  check "1 vs 2 domains bit-identical"
    (bits_eq means1 means2 && bits_eq sds1 sds2);
  let scalar_ok = ref true in
  for i = 0 to 19 do
    let x = Mat.row xs i in
    let m_s, s_s = Model.predict model ~state:states.(i) x in
    let m_b, s_b = Engine.predict model ~state:states.(i) x in
    if
      not
        (Int64.equal (Int64.bits_of_float m_s) (Int64.bits_of_float means2.(i))
        && Int64.equal (Int64.bits_of_float s_s) (Int64.bits_of_float sds2.(i))
        && Int64.equal (Int64.bits_of_float m_s) (Int64.bits_of_float m_b)
        && Int64.equal (Int64.bits_of_float s_s) (Int64.bits_of_float s_b))
    then scalar_ok := false
  done;
  check "batch = batch-of-1 = scalar predict bitwise" !scalar_ok;

  (* --- Server over a temp Unix socket ------------------------------- *)
  let sock = Filename.concat dir "serve.sock" in
  let server =
    Server.start
      ~config:{ Server.default_config with workers = 2; timeout = 30.0 }
      (Unix.ADDR_UNIX sock)
  in
  let c = Client.connect (Unix.ADDR_UNIX sock) in
  (match Client.load_path c ~name:"lna" ~path:snap with
  | Ok (n_active, n_states, _) ->
      check "server load reports shape"
        (n_active = Model.n_active model && n_states = k)
  | Error e -> check ("server load: " ^ e) false);

  (* 100 batched predict requests; every reply bit-identical to the
     local engine. *)
  let served_ok = ref true in
  for req = 0 to 99 do
    let b = 1 + (req mod 13) in
    let off = req mod (n - b) in
    let bxs = Mat.init b dim (fun i j -> Mat.get xs (off + i) j) in
    let bstates = Array.sub states off b in
    let lm, ls = Engine.predict_batch model ~states:bstates ~xs:bxs in
    match Client.predict_typed c ~name:"lna" ~states:bstates ~xs:bxs with
    | Ok (rm, rs) -> if not (bits_eq lm rm && bits_eq ls rs) then served_ok := false
    | Error _ -> served_ok := false
  done;
  check "100 batched requests served bit-identically" !served_ok;

  (* Unknown model: typed error, connection stays up. *)
  (match
     Client.predict_typed c ~name:"nope" ~states:[| 0 |] ~xs:(Mat.create 1 dim)
   with
  | Error (Client.Server_error { code = Protocol.Model_not_found; _ }) -> ()
  | _ -> check "unknown model -> model-not-found" false);

  (* Injection-armed decode: typed error reply, server stays alive. *)
  Cbmf_robust.Inject.arm ~prob:1.0 ~sites:[ "serve.decode" ] ();
  let image = Snapshot.encode model in
  (match
     Client.call c
       (Protocol.Load { name = "injected"; source = Protocol.Inline image })
   with
  | Error (Client.Server_error { code = Protocol.Bad_snapshot; _ }) -> ()
  | _ -> check "injected decode fault -> bad-snapshot reply" false);
  Cbmf_robust.Inject.disarm ();
  (match Client.load_inline c ~name:"inline" ~image with
  | Ok _ -> ()
  | Error e -> check ("inline load after disarm: " ^ e) false);

  (* Malformed frame (well-delimited, garbage body): typed error. *)
  (match Client.send_raw c "\xDE\xAD\xBE\xEF" with
  | Protocol.Error { code = Protocol.Bad_frame; _ } -> ()
  | _ -> check "malformed frame -> bad-frame reply" false);

  (* The same connection still serves after the bad frame. *)
  (match Client.predict_typed c ~name:"lna" ~states:[| 0 |]
           ~xs:(Mat.init 1 dim (fun _ j -> points.(0).(j)))
  with
  | Ok _ -> ()
  | Error f ->
      check ("connection survives bad frame: " ^ Client.failure_to_string f)
        false);

  (* Stats JSON: schema spot-checks. *)
  (match Client.stats c with
  | Ok json ->
      let has needle =
        let nl = String.length needle and bl = String.length json in
        let rec scan i =
          if i + nl > bl then false
          else if String.sub json i nl = needle then true
          else scan (i + 1)
        in
        scan 0
      in
      List.iter
        (fun key -> check (Printf.sprintf "stats has %s" key) (has key))
        [ "\"requests\""; "\"predict\":102"; "\"load\":3"; "\"errors\"";
          "\"points\""; "\"max_batch\""; "\"latency_us\""; "\"p50\"";
          "\"p99\""; "\"buckets\""; "\"registry\""; "\"hits\"";
          "\"misses\""; "\"phases\""; "\"queue_wait_us\"";
          "\"batch_wait_us\""; "\"compute_us\""; "\"batch_occupancy\"";
          "\"flushes\""; "\"coalesced_requests\"" ]
  | Error e -> check ("stats: " ^ e) false);

  (* --- Hot reload under load ---------------------------------------- *)
  (* A hammer thread predicts continuously on its own connection while
     this thread atomically swaps the model back and forth.  Zero
     requests may be dropped, and every reply must be bit-identical to
     exactly one of the two swapped models — never a torn mix. *)
  let model_b =
    { model with Model.y_means = Array.map (fun v -> v +. 1.0) model.Model.y_means }
  in
  check "perturbed model validates" (Model.validate model_b = Ok ());
  let hxs = Mat.init 8 dim (fun i j -> Mat.get xs i j) in
  let hstates = Array.sub states 0 8 in
  let exp_a = Engine.predict_batch model ~states:hstates ~xs:hxs in
  let exp_b = Engine.predict_batch model_b ~states:hstates ~xs:hxs in
  let matches (em, es) (rm, rs) = bits_eq em rm && bits_eq es rs in
  let gen_before =
    match Client.ping c with
    | Ok gen -> gen
    | Error f ->
        check ("ping before reload: " ^ Client.failure_to_string f) false;
        0
  in
  let stop_hammer = ref false in
  let dropped = ref 0 and torn = ref 0 and served = ref 0 in
  let hammer =
    Thread.create
      (fun () ->
        let hc = Client.connect (Unix.ADDR_UNIX sock) in
        while not !stop_hammer do
          (match Client.predict_typed hc ~name:"lna" ~states:hstates ~xs:hxs with
          | Ok reply ->
              incr served;
              if not (matches exp_a reply || matches exp_b reply) then incr torn
          | Error _ -> incr dropped);
          Thread.yield ()
        done;
        Client.close hc)
      ()
  in
  let swaps = 6 in
  let reload_failures = ref 0 in
  for i = 1 to swaps do
    let next = if i land 1 = 1 then model_b else model in
    (match Client.reload_inline c ~name:"lna" ~image:(Snapshot.encode next) with
    | Ok _ -> ()
    | Error _ -> incr reload_failures);
    Thread.delay 0.01
  done;
  (* A corrupt image must roll back: typed refusal, old model serves on. *)
  (match Client.reload_inline c ~name:"lna" ~image:"garbage" with
  | Error (Client.Server_error { code = Protocol.Bad_snapshot; _ }) -> ()
  | _ -> check "corrupt reload refused with bad-snapshot" false);
  Thread.delay 0.02;
  stop_hammer := true;
  Thread.join hammer;
  check "reloads all succeeded" (!reload_failures = 0);
  check "hammer saw traffic during reloads" (!served > 0);
  check "zero in-flight requests dropped across reloads" (!dropped = 0);
  check "no torn model ever served" (!torn = 0);
  (match Client.ping c with
  | Ok gen ->
      check "generation advanced by exactly the successful swaps"
        (gen = gen_before + swaps)
  | Error f -> check ("ping after reload: " ^ Client.failure_to_string f) false);
  (* Back on the original model: replies bit-identical to pre-reload. *)
  (match Client.predict_typed c ~name:"lna" ~states:hstates ~xs:hxs with
  | Ok reply -> check "final model bit-identical to original" (matches exp_a reply)
  | Error f -> check ("post-reload predict: " ^ Client.failure_to_string f) false);

  Client.shutdown c;
  Client.close c;
  Server.wait server;
  check "socket file removed on stop" (not (Sys.file_exists sock));

  (* --- Overload flood ----------------------------------------------- *)
  (* Fault-free overload: 16 client threads send predicts on fresh
     connections for about a second to a server with 8 workers and 4
     queue slots.  Some requests must be shed with a typed
     [Overloaded]; none may be lost, and every served reply is
     bit-identical to the local engine.  A reply slower than the
     client's 5 s timeout would show up as [Connection_lost]. *)
  let flood_sock = Filename.concat dir "flood.sock" in
  let registry = Registry.create () in
  Registry.put registry ~name:"lna" model;
  let flood =
    Server.start
      ~config:
        { Server.default_config with workers = 8; queue_cap = 4; timeout = 5.0 }
      ~registry (Unix.ADDR_UNIX flood_sock)
  in
  let ok = Atomic.make 0 and mismatched = Atomic.make 0 in
  let overloaded = Atomic.make 0 and lost = Atomic.make 0 in
  let server_errors = Atomic.make 0 and unexpected = Atomic.make 0 in
  let raised = Atomic.make 0 in
  let until = Unix.gettimeofday () +. 1.0 in
  let flood_client () =
    while Unix.gettimeofday () < until do
      match
        let fc = Client.connect ~timeout:5.0 (Unix.ADDR_UNIX flood_sock) in
        Fun.protect
          ~finally:(fun () -> Client.close fc)
          (fun () ->
            Client.predict_typed fc ~name:"lna" ~states:hstates ~xs:hxs)
      with
      | Ok reply ->
          Atomic.incr (if matches exp_a reply then ok else mismatched)
      | Error (Client.Overloaded _) -> Atomic.incr overloaded
      | Error (Client.Connection_lost _) -> Atomic.incr lost
      | Error (Client.Server_error _) -> Atomic.incr server_errors
      | Error (Client.Unexpected _) -> Atomic.incr unexpected
      | exception _ -> Atomic.incr raised
    done
  in
  List.iter Thread.join (List.init 16 (fun _ -> Thread.create flood_client ()));
  Server.stop flood;
  let n = Atomic.get in
  Printf.printf
    "serve-smoke flood: ok %d, mismatched %d, overloaded %d, \
     connection_lost %d, server_error %d, unexpected %d, raised %d\n%!"
    (n ok) (n mismatched) (n overloaded) (n lost) (n server_errors)
    (n unexpected) (n raised);
  check "flood: some requests served" (n ok > 0);
  check "flood: every served reply bit-identical" (n mismatched = 0);
  check "flood: some requests shed with Overloaded" (n overloaded > 0);
  check "flood: no Connection_lost" (n lost = 0);
  check "flood: no Server_error" (n server_errors = 0);
  check "flood: no Unexpected" (n unexpected = 0);
  check "flood: no raised exception" (n raised = 0);

  Sys.remove snap;
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  if !failures > 0 then begin
    Printf.eprintf "serve-smoke: %d failure(s)\n%!" !failures;
    exit 1
  end;
  print_endline
    "serve-smoke: snapshot round-trip bit-identical; 100 batched requests \
     served; faults answered with typed errors"
