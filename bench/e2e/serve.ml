(* lna-serve: a forked server, two LNA snapshots and a two-connection
   generator.

   The server runs in its own process ([Shard.start ~shards:1], forked
   before this process spawns any domain), so the generator never
   shares the server's runtime lock.  Set-up simulates the LNA, fits
   snapshot A (default config, 15 samples/state) and B (fast config,
   10 samples/state), predicts every request locally on both, and
   uploads A.  The timed phases are an open loop at a fixed rate —
   latency counted from each request's due time, connection 0 hot-
   reloading B/A every 500 ms — then a closed loop on both connections.
   Every reply is compared bit-for-bit with the local prediction of A
   or B; every failure is counted by its [Client.failure] constructor
   or as a mismatch. *)

open Cbmf_linalg
open Cbmf_core
open Cbmf_experiments
module S = Cbmf_serve
module Montecarlo = Cbmf_circuit.Montecarlo

let name = "lna"
let points_per_request = 8

type snapshot = {
  image : string;
  expect : (float array * float array) array;  (** per request *)
}

type setup = {
  a : snapshot;
  b : snapshot;
  requests : (int array * Mat.t) array;
  actual : float array;  (** held-out responses, request order *)
  model_a : S.Model.t;
  em_iterations : int;  (** both fits' EM iterations (traced set-ups) *)
  em_recoveries : int;
}

(* Held-out Monte-Carlo points, [points_per_request] consecutive
   (state-major) points per request. *)
let requests_of (test : Montecarlo.t) =
  let k = Array.length test.Montecarlo.states in
  let n = k * test.Montecarlo.n_per_state / points_per_request in
  let point p = (p mod k, p / k) in
  let reqs =
    Array.init n (fun r ->
        let pts = Array.init points_per_request (fun i -> point ((r * points_per_request) + i)) in
        let xs =
          Mat.init points_per_request
            test.Montecarlo.states.(0).Montecarlo.xs.Mat.cols
            (fun i j ->
              let s, smp = pts.(i) in
              Mat.get test.Montecarlo.states.(s).Montecarlo.xs smp j)
        in
        (Array.map fst pts, xs))
  in
  let actual =
    Array.concat
      (Array.to_list
         (Array.init n (fun r ->
              Array.init points_per_request (fun i ->
                  let s, smp = point ((r * points_per_request) + i) in
                  Mat.get test.Montecarlo.states.(s).Montecarlo.ys smp Fits.lna_poi))))
  in
  (reqs, actual)

let connect addr = S.Client.connect ~timeout:10.0 addr

let with_client addr f =
  let c = connect addr in
  Fun.protect ~finally:(fun () -> S.Client.close c) (fun () -> f c)

(* Simulate, fit both snapshots, predict every request on both, upload A.
   Traced set-ups replay the fits under spans. *)
let build ~smoke ~seed ~traced addr =
  let data = Span.with_span "inputs.generate" (fun () -> Fits.lna_data ~smoke ~seed) in
  let dict = data.Workload.workload.Workload.dictionary in
  let requests, actual = requests_of data.Workload.test in
  let iterations = ref 0 and recoveries = ref 0 in
  let snapshot ~config ~n =
    let train = Workload.train_dataset data ~poi:Fits.lna_poi ~n_per_state:n in
    let view =
      Span.with_span "cbmf.fit" (fun () ->
          if traced then begin
            let r = Fits.replay ~config train in
            iterations := !iterations + r.Fits.iterations;
            recoveries := !recoveries + r.Fits.recoveries;
            r.Fits.view
          end
          else lazy (Cbmf.fitted_view (Cbmf.fit ~config train)))
    in
    let view = Span.with_span "cbmf.view" (fun () -> Lazy.force view) in
    let model = S.Model.of_fit ~dict view in
    let image = Span.with_span "snapshot.encode" (fun () -> S.Snapshot.encode model) in
    let expect =
      Span.with_span "engine.predict_batch" (fun () ->
          Array.map (fun (states, xs) -> S.Engine.predict_batch model ~states ~xs) requests)
    in
    (model, { image; expect })
  in
  let small = if smoke then Fits.tiny_config else Cbmf.fast_config in
  let model_a, a =
    snapshot ~config:(if smoke then Fits.tiny_config else Cbmf.default_config)
      ~n:(if smoke then 4 else 15)
  in
  let _, b = snapshot ~config:small ~n:(if smoke then 3 else 10) in
  Span.with_span "client.load" (fun () ->
      match with_client addr (fun c -> S.Client.load_inline c ~name ~image:a.image) with
      | Ok _ -> ()
      | Error e -> failwith ("load_inline: " ^ e));
  { a; b; requests; actual; model_a; em_iterations = !iterations;
    em_recoveries = !recoveries }

(* --- Generator ----------------------------------------------------------- *)

let bits_eq xs ys =
  Array.length xs = Array.length ys
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       xs ys

let matches (m, s) (em, es) = bits_eq m em && bits_eq s es

let failure_name = function
  | S.Client.Connection_lost _ -> "connection_lost"
  | S.Client.Overloaded _ -> "overloaded"
  | S.Client.Server_error _ -> "server_error"
  | S.Client.Unexpected _ -> "unexpected"

(* One generator thread's outcomes. *)
type tally = {
  mutable attempts : int;  (** predicts and reloads sent *)
  mutable latencies : float list;  (** from due (open) or send (closed), s; infinity if failed *)
  mutable round_trips : float list;
  mutable lags : float list;
  mutable reloads : float list;
  mutable ok : int;
  mutable failures : (string * int) list;
}

let new_tally () =
  { attempts = 0; latencies = []; round_trips = []; lags = []; reloads = []; ok = 0; failures = [] }

let fail t what =
  t.failures <-
    (what, 1 + Option.value ~default:0 (List.assoc_opt what t.failures))
    :: List.remove_assoc what t.failures

(* A connection that redials after a lost stream, so one failure does
   not poison every later request on it. *)
type conn = { addr : Unix.sockaddr; mutable client : S.Client.t }

let redial c =
  S.Client.close c.client;
  try c.client <- connect c.addr with Unix.Unix_error _ -> ()

let predict t c ~accept (states, xs) =
  t.attempts <- t.attempts + 1;
  match S.Client.predict_typed c.client ~name ~states ~xs with
  | Ok reply -> if accept reply then (t.ok <- t.ok + 1; true) else (fail t "mismatch"; false)
  | Error f ->
      fail t (failure_name f);
      (match f with S.Client.Connection_lost _ -> redial c | _ -> ());
      false

let reload t c image =
  t.attempts <- t.attempts + 1;
  let t0 = Report.now () in
  match S.Client.reload_inline c.client ~name ~image with
  | Ok _ -> t.reloads <- (Report.now () -. t0) :: t.reloads
  | Error f ->
      fail t ("reload." ^ failure_name f);
      (match f with S.Client.Connection_lost _ -> redial c | _ -> ())

let in_threads conns f =
  let tallies = Array.map (fun _ -> new_tally ()) conns in
  let threads =
    Array.mapi (fun i c -> Thread.create (fun () -> f i c tallies.(i)) ()) conns
  in
  Array.iter Thread.join threads;
  tallies

(* Open loop: arrival j is due at start + j/rate on connection j mod 2,
   whether or not earlier replies are back.  Connection 0 also reloads
   B, A, B, ... every [reload_every] seconds (0 = never), and A again
   at the end if B was loaded last. *)
let open_loop st conns ~rate ~duration ~reload_every =
  let start = Report.now () +. 0.005 in
  let total = int_of_float (rate *. duration) in
  let n_conns = Array.length conns in
  let reloads_done = ref 0 in
  let tallies =
    in_threads conns (fun i c t ->
        let j = ref i in
        while !j < total do
          let due = start +. (float_of_int !j /. rate) in
          if i = 0 && reload_every > 0.0 then
            while start +. (float_of_int !reloads_done *. reload_every) <= due do
              let image = if !reloads_done mod 2 = 0 then st.b.image else st.a.image in
              reload t c image;
              incr reloads_done
            done;
          let wait = due -. Report.now () in
          if wait > 0.0 then Thread.delay wait;
          let r = !j mod Array.length st.requests in
          let sent = Report.now () in
          let ok =
            predict t c st.requests.(r) ~accept:(fun reply ->
                matches reply st.a.expect.(r) || matches reply st.b.expect.(r))
          in
          let fin = Report.now () in
          t.lags <- (sent -. due) :: t.lags;
          t.round_trips <- (fin -. sent) :: t.round_trips;
          t.latencies <- (if ok then fin -. due else infinity) :: t.latencies;
          j := !j + n_conns
        done)
  in
  (* Leave A loaded for what follows. *)
  if !reloads_done mod 2 = 1 then reload tallies.(0) conns.(0) st.a.image;
  tallies

(* Closed loop: each connection sends its next request as soon as the
   previous reply is back; every reply must be A's. *)
let closed_loop st conns ~duration =
  let stop = Report.now () +. duration in
  in_threads conns (fun i c t ->
      let r = ref i in
      while Report.now () < stop do
        let idx = !r mod Array.length st.requests in
        let sent = Report.now () in
        let ok = predict t c st.requests.(idx) ~accept:(matches st.a.expect.(idx)) in
        t.latencies <- (if ok then Report.now () -. sent else infinity) :: t.latencies;
        r := !r + Array.length conns
      done)

(* --- Server statistics ----------------------------------------------------- *)

let stats addr =
  match with_client addr S.Client.stats with
  | Ok s -> Json.parse s
  | Error e -> failwith ("stats: " ^ e)

let buckets j path =
  List.map
    (fun b ->
      match Json.to_list b with
      | [ Json.Num e; Json.Num c ] -> (e, c)
      | [ _; Json.Num c ] -> (infinity, c)
      | _ -> failwith "stats: bad bucket")
    (Json.to_list (Json.path (path @ [ "buckets" ]) j))

(* Upper bucket edge at quantile [q] of the requests recorded between
   two stats reads. *)
let phase_quantile before after path q =
  let b = buckets before path in
  let d =
    List.map
      (fun (e, c) -> (e, c -. Option.value ~default:0.0 (List.assoc_opt e b)))
      (buckets after path)
  in
  let n = List.fold_left (fun acc (_, c) -> acc +. c) 0.0 d in
  let rec walk acc = function
    | [] -> 0.0
    | (e, c) :: rest -> if acc +. c >= q *. n then e else walk (acc +. c) rest
  in
  if n <= 0.0 then 0.0 else walk 0.0 d

let counter before after path =
  Json.to_num (Json.path path after) -. Json.to_num (Json.path path before)

(* --- The workload ---------------------------------------------------------- *)

let run ~smoke ~seed ~seconds ~trace =
  (* Fork first: this process has no domains yet. *)
  let t0 = Report.now () in
  let base_path = Printf.sprintf ".e2e-%d" (Unix.getpid ()) in
  let cluster = S.Shard.start ~shards:1 ~base_path () in
  Fun.protect ~finally:(fun () -> S.Shard.stop cluster) @@ fun () ->
  S.Shard.wait_ready cluster;
  let server_start_s = Report.now () -. t0 in
  let addr = (S.Shard.addrs cluster).(0) in
  let setup_s, st = Report.setups (fun () -> build ~smoke ~seed ~traced:false addr) in
  let rate = if smoke then 200.0 else 1000.0 in
  let reload_every = if smoke then 0.1 else 0.5 in
  let conns = Array.init 2 (fun _ -> { addr; client = connect addr }) in
  Fun.protect ~finally:(fun () -> Array.iter (fun c -> S.Client.close c.client) conns)
  @@ fun () ->
  let warm = open_loop st conns ~rate ~duration:(0.1 *. seconds) ~reload_every:0.0 in
  let s0 = stats addr in
  let opened = open_loop st conns ~rate ~duration:(0.6 *. seconds) ~reload_every in
  let s1 = stats addr in
  let t_closed = Report.now () in
  let closed = closed_loop st conns ~duration:(0.3 *. seconds) in
  let closed_s = Report.now () -. t_closed in
  let s2 = stats addr in
  let all_of f tallies = List.concat_map f (Array.to_list tallies) in
  let everything = Array.concat [ warm; opened; closed ] in
  let failures =
    List.fold_left
      (fun acc (k, n) -> (k, n + Option.value ~default:0 (List.assoc_opt k acc)) :: List.remove_assoc k acc)
      [] (all_of (fun t -> t.failures) everything)
  in
  let failed = List.fold_left (fun acc (_, n) -> acc + n) 0 failures in
  let reloads = all_of (fun t -> t.reloads) everything in
  let attempted = Array.fold_left (fun acc t -> acc + t.attempts) 0 everything in
  let lat = all_of (fun t -> t.latencies) opened in
  let closed_ok = Array.fold_left (fun acc t -> acc + t.ok) 0 closed in
  let served =
    Array.concat (Array.to_list (Array.map (fun (m, _) -> m) st.a.expect))
  in
  let heldout_err = Cbmf_model.Metrics.relative_rms_pooled [| (served, st.actual) |] in
  let ms x = 1e3 *. x in
  let e2e =
    [ ("setup_s", setup_s);
      ("latency_p50_ms", ms (Report.quantile 0.5 lat));
      ("throughput_per_s", float_of_int closed_ok /. closed_s);
      ("heldout_err", heldout_err);
      ("peak_rss_mb", Report.peak_rss_mb ()) ]
  in
  let q path q = ms (1e-6 *. phase_quantile s0 s1 path q) in
  let extra =
    [ ("server.start_s", server_start_s, "s");
      ("offered_rps", rate, "1/s");
      ("predict_p50_ms", ms (Report.quantile 0.5 lat), "ms");
      ("predict_p90_ms", ms (Report.quantile 0.9 lat), "ms");
      ("predict_p99_ms", ms (Report.quantile 0.99 lat), "ms");
      ("open.requests", float_of_int (List.length lat), "count");
      ("serve_rps", float_of_int closed_ok /. closed_s, "1/s");
      ("closed.requests", float_of_int (List.length (all_of (fun t -> t.latencies) closed)), "count");
      ("client.predict_p99_ms", ms (Report.quantile 0.99 (all_of (fun t -> t.round_trips) opened)), "ms");
      ("client.gen_lag_p99_ms", ms (Report.quantile 0.99 (all_of (fun t -> t.lags) opened)), "ms");
      ("client.mismatches", float_of_int (Option.value ~default:0 (List.assoc_opt "mismatch" failures)), "count");
      ("registry.reloads", float_of_int (List.length reloads), "count");
      ("registry.reload_p50_ms", ms (Report.quantile 0.5 reloads), "ms");
      ("server.queue_wait_p50_ms_coarse", q [ "phases"; "queue_wait_us" ] 0.5, "ms");
      ("server.queue_wait_p99_ms_coarse", q [ "phases"; "queue_wait_us" ] 0.99, "ms");
      ("batcher.batch_wait_p50_ms_coarse", q [ "phases"; "batch_wait_us" ] 0.5, "ms");
      ("engine.compute_p50_ms_coarse", q [ "phases"; "compute_us" ] 0.5, "ms");
      ( "batcher.points_per_flush_p50_coarse",
        phase_quantile s1 s2 [ "batch_occupancy" ] 0.5,
        "count" );
      ("server.sheds", counter s0 s2 [ "sheds" ], "count");
      ("server.deadlines", counter s0 s2 [ "deadline_exceeded" ], "count") ]
    @ List.map (fun (k, n) -> ("failed." ^ k, float_of_int n, "count")) failures
  in
  let oracles =
    [ ("replies-bit-identical", failed = 0);
      ("no-sheds", counter s0 s2 [ "sheds" ] = 0.0);
      ("heldout-err-finite", Float.is_finite heldout_err && heldout_err < 1.0) ]
  in
  let layers, trace_extra, trace_oracles =
    if not trace then ([], [], [])
    else begin
      Span.reset ();
      Span.enabled := true;
      let traced = Span.with_span "rep" (fun () -> build ~smoke ~seed ~traced:true addr) in
      Span.enabled := false;
      let rep = List.hd (Span.named "rep") in
      (* Out-of-band medians of the serving layers on this set-up: 21
         samples, each timing a batch of 20 calls. *)
      let median_us f =
        let batch () = for _ = 1 to 20 do ignore (f ()) done in
        5e4 *. Report.median (List.init 21 (fun _ -> fst (Report.timed batch)))
      in
      let req = st.requests.(0) in
      let preq = S.Protocol.Predict { name; states = fst req; xs = snd req } in
      let reply =
        S.Protocol.encode_reply
          (S.Protocol.Predicted { means = fst st.a.expect.(0); sds = snd st.a.expect.(0) })
      in
      ( Report.layer_metrics ~coverage:(Span.coverage rep)
          ~overhead_pct:
            (Report.overhead_pct ~traced_s:(Span.duration rep) ~untraced_s:setup_s)
          ~iterations:traced.em_iterations ~recoveries:traced.em_recoveries,
        [ ("cbmf.view_s", Span.total "cbmf.view", "s");
          ("snapshot.bytes", float_of_int (String.length st.a.image), "bytes");
          ("snapshot.encode_ms", 1e-3 *. median_us (fun () -> S.Snapshot.encode st.model_a), "ms");
          ("snapshot.decode_ms", 1e-3 *. median_us (fun () -> S.Snapshot.decode st.a.image), "ms");
          ("protocol.request_bytes", float_of_int (String.length (S.Protocol.encode_request preq)), "bytes");
          ("protocol.encode_request_us", median_us (fun () -> S.Protocol.encode_request preq), "us");
          ("protocol.decode_reply_us", median_us (fun () -> S.Protocol.decode_reply reply), "us");
          ( "engine.predict_batch_us",
            median_us (fun () ->
                S.Engine.predict_batch st.model_a ~states:(fst req) ~xs:(snd req)),
            "us" ) ],
        [ ("traced-snapshots-equal", traced.a.image = st.a.image && traced.b.image = st.b.image);
          ("spans-nest", Span.well_nested ()) ] )
    end
  in
  {
    Report.e2e;
    layers;
    extra = extra @ trace_extra;
    attempted;
    failed = failed + List.length (List.filter (fun (_, ok) -> not ok) trace_oracles);
    oracles = oracles @ trace_oracles;
    reps = 1;
  }
