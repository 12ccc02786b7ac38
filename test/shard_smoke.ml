(* Sharded-serving smoke test.

   Run by the `shard-smoke` dune alias with CBMF_DOMAINS=1: forks a
   real 3-shard cluster (one Server per child process, Unix-domain
   sockets "<base>.shard-<i>"), waits for every shard to answer a
   ping, then drives the consistent-hash router end to end — models
   loaded through the router land only on their hash owner, every
   shard reports the registry budget the cluster was started with,
   routed predicts are bit-identical to the local engine, pipelined
   [predict_many] agrees slot for slot, a hot reload bumps the slot
   generation without moving the model, and a graceful stop reaps
   every child and removes the socket files.  Then the failure path:
   a 1-shard cluster whose socket directory does not exist, so the
   child's bind fails — [wait_ready] must raise [Failure] and [stop]
   must still reap the child.  Exits nonzero on
   any failure.

   CBMF_DOMAINS=1 is load-bearing: the parent must not have spawned
   pool domains when [Shard.start] forks (fork clones only the calling
   domain, so a multi-domain parent could deadlock the child runtime).
   At size 1 the pool runs inline and spawns nothing; the children
   build their own state fresh after the fork. *)

open Cbmf_linalg
open Cbmf_serve

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.eprintf "shard-smoke FAIL: %s\n%!" name
  end

let bits_eq xs ys =
  Array.length xs = Array.length ys
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       xs ys

let contains ~sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let srng = Cbmf_prob.Rng.create 24680

let g () = Cbmf_prob.Rng.gaussian srng

let spd n =
  let a = Mat.init n n (fun _ _ -> g ()) in
  let m = Mat.gram a in
  Mat.add_diag_inplace m (float_of_int n *. 0.5);
  Mat.symmetrize_inplace m;
  m

(* A structurally valid serving model — pure construction, no fitting,
   no pool use (see the fork-safety note above). *)
let synth_model ?(dim = 5) ?(k = 3) ?(a = 8) () =
  let terms =
    Array.init a (fun j ->
        match j mod 4 with
        | 0 -> Cbmf_basis.Term.Constant
        | 1 -> Cbmf_basis.Term.Linear (j mod dim)
        | 2 -> Cbmf_basis.Term.Square (j mod dim)
        | _ ->
            let i = j mod (dim - 1) in
            Cbmf_basis.Term.Cross (i, i + 1))
  in
  {
    Model.input_dim = dim;
    n_states = k;
    terms;
    col_means = Mat.init k a (fun _ _ -> g ());
    col_scales = Array.init a (fun _ -> 0.5 +. Float.abs (g ()));
    y_means = Array.init k (fun _ -> g ());
    y_scale = 1.0 +. Float.abs (g ());
    mu = Mat.init a k (fun _ _ -> g ());
    lambda = Array.init a (fun _ -> Float.abs (g ()));
    r = Mat.init k k (fun _ _ -> g ());
    sigma0 = 0.05;
    cov = Array.init k (fun _ -> spd a);
  }

let () =
  check "CBMF_DOMAINS=1 honored" (Cbmf_parallel.Pool.env_domains () = 1);

  let n_shards = 3 in
  let n_models = 6 in
  let dir = Filename.temp_file "cbmf_shard_smoke" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let base = Filename.concat dir "cluster.sock" in

  (* A non-default registry budget, ample for the six small models. *)
  let max_bytes = 8 * 1024 * 1024 in
  let cluster =
    Shard.start
      ~config:{ Server.default_config with workers = 2; timeout = 30.0 }
      ~max_bytes ~shards:n_shards ~base_path:base ()
  in
  Shard.wait_ready cluster;
  let router = Shard.connect cluster in

  let models = Array.init n_models (fun _ -> synth_model ()) in
  let name j = Printf.sprintf "smoke-%d" j in

  (* Load through the router: each model lands on its hash owner. *)
  Array.iteri
    (fun j m ->
      match
        Client.load_inline
          (Shard.client_for router ~name:(name j))
          ~name:(name j) ~image:(Snapshot.encode m)
      with
      | Ok (n_active, n_states, _) ->
          check "load reports shape"
            (n_active = Model.n_active m && n_states = m.Model.n_states)
      | Error e -> check (Printf.sprintf "load %s: %s" (name j) e) false)
    models;

  (* The namespace spread over more than one shard. *)
  let owners = Array.init n_models (fun j -> Shard.route router ~name:(name j)) in
  check "several shards in use"
    (Array.exists (fun o -> o <> owners.(0)) owners);

  (* A shard that does NOT own a name must not know it: dial each
     non-owner directly and expect model-not-found. *)
  let misplaced = ref false in
  for i = 0 to n_shards - 1 do
    if i <> owners.(0) then begin
      let c = Client.connect (Shard.shard_addr ~base_path:base i) in
      (match
         Client.predict_typed c ~name:(name 0)
           ~states:[| 0 |]
           ~xs:(Mat.create 1 models.(0).Model.input_dim)
       with
      | Error (Client.Server_error { code = Protocol.Model_not_found; _ }) -> ()
      | _ -> misplaced := true);
      Client.close c
    end
  done;
  check "model lives only on its hash owner" (not !misplaced);

  (* Every shard's registry carries the cluster's budget. *)
  let budget_key = Printf.sprintf "\"max_bytes\":%d}" max_bytes in
  for i = 0 to n_shards - 1 do
    let c = Client.connect (Shard.shard_addr ~base_path:base i) in
    (match Client.stats c with
    | Ok json ->
        check
          (Printf.sprintf "shard %d stats report max_bytes %d" i max_bytes)
          (contains ~sub:budget_key json)
    | Error e -> check (Printf.sprintf "shard %d stats: %s" i e) false);
    Client.close c
  done;

  (* Routed predicts: bit-identical to the local engine. *)
  Array.iteri
    (fun j m ->
      let xs = Mat.init 6 m.Model.input_dim (fun _ _ -> g ()) in
      let states = Array.init 6 (fun s -> s mod m.Model.n_states) in
      let em, es = Engine.predict_batch m ~states ~xs in
      match
        Client.predict_typed
          (Shard.client_for router ~name:(name j))
          ~name:(name j) ~states ~xs
      with
      | Ok (rm, rs) ->
          check "routed predict bit-identical" (bits_eq em rm && bits_eq es rs)
      | Error f ->
          check
            (Printf.sprintf "routed predict %s: %s" (name j)
               (Client.failure_to_string f))
            false)
    models;

  (* Pipelined predict_many through the router, one shard. *)
  let m0 = models.(0) in
  let reqs =
    List.init 5 (fun r ->
        let b = 2 + r in
        ( Array.init b (fun s -> s mod m0.Model.n_states),
          Mat.init b m0.Model.input_dim (fun _ _ -> g ()) ))
  in
  let many_ok = ref true in
  List.iter2
    (fun (states, xs) res ->
      let em, es = Engine.predict_batch m0 ~states ~xs in
      match res with
      | Ok (rm, rs) -> if not (bits_eq em rm && bits_eq es rs) then many_ok := false
      | Error _ -> many_ok := false)
    reqs
    (Client.predict_many
       (Shard.client_for router ~name:(name 0))
       ~name:(name 0) reqs);
  check "predict_many bit-identical slot for slot" !many_ok;

  (* Hot reload: slot generation bumps, placement does not move, the
     new model serves bit-identically. *)
  let m2 =
    { m0 with Model.y_means = Array.map (fun v -> v +. 1.0) m0.Model.y_means }
  in
  (match
     Client.reload_inline
       (Shard.client_for router ~name:(name 0))
       ~name:(name 0) ~image:(Snapshot.encode m2)
   with
  | Ok (generation, _, _, _) ->
      check "reload bumped the slot generation" (generation = 2)
  | Error f -> check ("reload: " ^ Client.failure_to_string f) false);
  check "reload did not move the model"
    (Shard.route router ~name:(name 0) = owners.(0));
  let xs = Mat.init 4 m2.Model.input_dim (fun _ _ -> g ()) in
  let states = Array.init 4 (fun s -> s mod m2.Model.n_states) in
  let em, es = Engine.predict_batch m2 ~states ~xs in
  (match
     Client.predict_typed
       (Shard.client_for router ~name:(name 0))
       ~name:(name 0) ~states ~xs
   with
  | Ok (rm, rs) ->
      check "serving the reloaded model bitwise" (bits_eq em rm && bits_eq es rs)
  | Error f -> check ("post-reload predict: " ^ Client.failure_to_string f) false);

  (* Graceful stop: children reaped, socket files gone. *)
  Shard.close_router router;
  Shard.stop cluster;
  let leftover = ref false in
  for i = 0 to n_shards - 1 do
    if Sys.file_exists (Printf.sprintf "%s.shard-%d" base i) then leftover := true
  done;
  check "socket files removed on stop" (not !leftover);

  (* A shard that never comes up: its socket directory does not exist,
     so the child's bind fails and it exits.  [wait_ready] gives up
     with [Failure], and [stop] still reaps the child, the only one
     left. *)
  let dead =
    Shard.start ~shards:1
      ~base_path:(Filename.concat (Filename.concat dir "missing") "dead.sock")
      ()
  in
  let t0 = Unix.gettimeofday () in
  (match Shard.wait_ready ~timeout:0.5 dead with
  | () -> check "wait_ready on a shard that cannot bind raises Failure" false
  | exception Failure _ ->
      check "wait_ready gave up within 2 s" (Unix.gettimeofday () -. t0 < 2.0));
  Shard.stop dead;
  check "stop reaped the dead shard's child"
    (match Unix.waitpid [ Unix.WNOHANG ] (-1) with
    | _ -> false
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true);

  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  if !failures > 0 then begin
    Printf.eprintf "shard-smoke: %d failure(s)\n%!" !failures;
    exit 1
  end;
  print_endline
    "shard-smoke: 3-shard cluster served routed predicts bit-identically; \
     reload stayed on its owner; graceful stop reaped every child; a \
     shard that could not bind failed wait_ready and was reaped"
