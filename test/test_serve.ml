(* Serving subsystem tests: codec primitives, snapshot persistence
   (round-trip bit-identity, truncation, bit flips, version/reserved
   fields), registry LRU behavior, batch engine vs the scalar path and
   across domain counts, wire protocol round-trips, and a client/server
   loopback over a socketpair — no listener, no ports. *)

open Cbmf_linalg
open Cbmf_basis
open Cbmf_robust
open Cbmf_serve
open Helpers

(* Own RNG so this file never perturbs the shared Helpers stream other
   suites draw from. *)
let srng = Cbmf_prob.Rng.create 987654

let g () = Cbmf_prob.Rng.gaussian srng

let bits_eq_f x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let bits_eq xs ys =
  Array.length xs = Array.length ys && Array.for_all2 bits_eq_f xs ys

let spd n =
  let a = Mat.init n n (fun _ _ -> g ()) in
  let m = Mat.gram a in
  Mat.add_diag_inplace m (float_of_int n *. 0.5);
  Mat.symmetrize_inplace m;
  m

(* A structurally valid serving model with every term kind present. *)
let synth_model ?(dim = 6) ?(k = 4) ?(a = 10) () =
  let terms =
    Array.init a (fun j ->
        match j mod 4 with
        | 0 -> Term.Constant
        | 1 -> Term.Linear (j mod dim)
        | 2 -> Term.Square (j mod dim)
        | _ ->
            let i = j mod (dim - 1) in
            Term.Cross (i, i + 1))
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

let with_temp_dir f =
  let dir = Filename.temp_file "cbmf_test_serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let expect_bad name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Bad_snapshot" name
  | exception Fault.Error (Fault.Bad_snapshot _) -> ()

(* --- Codec ----------------------------------------------------------- *)

let test_codec_roundtrip () =
  let w = Codec.writer () in
  Codec.w_u8 w 0;
  Codec.w_u8 w 255;
  Codec.w_u32 w 0;
  Codec.w_u32 w 0x7FFFFFFF;
  Codec.w_i64 w Int64.min_int;
  Codec.w_string w "";
  Codec.w_string w "payload \x00\xff bytes";
  Codec.w_u32_array w [| 3; 0; 71 |];
  let specials =
    [| 0.0; -0.0; Float.nan; infinity; neg_infinity; Int64.float_of_bits 1L;
       Int64.float_of_bits 0x7FF8DEADBEEF0001L; 1.5e-310; Float.pi |]
  in
  Codec.w_f64_array w specials;
  let m = Mat.init 3 2 (fun i j -> g () +. float_of_int ((i * 2) + j)) in
  Codec.w_mat w m;
  let r = Codec.reader (Codec.contents w) in
  check_int "u8 lo" 0 (Codec.r_u8 r);
  check_int "u8 hi" 255 (Codec.r_u8 r);
  check_int "u32 lo" 0 (Codec.r_u32 r);
  check_int "u32 hi" 0x7FFFFFFF (Codec.r_u32 r);
  check_true "i64" (Int64.equal Int64.min_int (Codec.r_i64 r));
  check_true "empty string" (String.equal "" (Codec.r_string r));
  check_true "binary string"
    (String.equal "payload \x00\xff bytes" (Codec.r_string r));
  check_true "u32 array" ([| 3; 0; 71 |] = Codec.r_u32_array r);
  check_true "f64 specials bit-identical" (bits_eq specials (Codec.r_f64_array r));
  let m' = Codec.r_mat r in
  check_true "mat shape" (m'.Mat.rows = 3 && m'.Mat.cols = 2);
  check_true "mat bits" (bits_eq m.Mat.data m'.Mat.data);
  Codec.expect_end r

let test_codec_rejects () =
  let w = Codec.writer () in
  Codec.w_string w "hello";
  let s = Codec.contents w in
  (* Every strict prefix must fail, never read garbage. *)
  for len = 0 to String.length s - 1 do
    let r = Codec.reader (String.sub s 0 len) in
    match Codec.r_string r with
    | _ -> Alcotest.failf "prefix %d decoded" len
    | exception Codec.Corrupt _ -> ()
  done;
  (* Trailing bytes are an error too. *)
  let r = Codec.reader (s ^ "\x00") in
  ignore (Codec.r_string r);
  (match Codec.expect_end r with
  | _ -> Alcotest.fail "trailing byte accepted"
  | exception Codec.Corrupt _ -> ());
  (* A u32 with the sign bit set is hostile, not a negative count. *)
  let r = Codec.reader "\xff\xff\xff\xff" in
  (match Codec.r_u32 r with
  | _ -> Alcotest.fail "sign-bit u32 accepted"
  | exception Codec.Corrupt _ -> ());
  (* A length field larger than the remaining bytes must not allocate. *)
  let w = Codec.writer () in
  Codec.w_u32 w 0x10000000;
  let r = Codec.reader (Codec.contents w ^ "ab") in
  match Codec.r_string r with
  | _ -> Alcotest.fail "oversized length accepted"
  | exception Codec.Corrupt _ -> ()

let test_codec_fnv64 () =
  (* Reference FNV-1a 64-bit vectors. *)
  check_true "fnv64 empty"
    (Int64.equal 0xcbf29ce484222325L (Codec.fnv64 ""));
  check_true "fnv64 'a'" (Int64.equal 0xaf63dc4c8601ec8cL (Codec.fnv64 "a"));
  check_true "fnv64 'foobar'"
    (Int64.equal 0x85944171f73967e8L (Codec.fnv64 "foobar"));
  check_true "fnv64 range = fnv64 slice"
    (Int64.equal (Codec.fnv64 ~pos:1 ~len:3 "xfoox") (Codec.fnv64 "foo"))

(* --- Snapshot -------------------------------------------------------- *)

let test_snapshot_roundtrip () =
  List.iter
    (fun (dim, k, a) ->
      let m = synth_model ~dim ~k ~a () in
      check_true "synthetic model validates" (Model.validate m = Ok ());
      let img = Snapshot.encode m in
      let m' = Snapshot.decode img in
      check_true "decode(encode m) bit-identical" (Model.equal m' m);
      check_true "re-encode byte-identical"
        (String.equal (Snapshot.encode m') img))
    [ (2, 1, 1); (6, 4, 10); (9, 7, 23) ]

let test_snapshot_special_floats () =
  let m = synth_model () in
  let plant (d : float array) =
    d.(0) <- Float.nan;
    d.(1) <- -0.0;
    d.(2) <- Int64.float_of_bits 1L (* smallest subnormal *);
    d.(3) <- infinity;
    d.(4) <- neg_infinity;
    d.(5) <- Int64.float_of_bits 0x7FF8DEADBEEF0001L (* NaN payload *)
  in
  plant m.Model.mu.Mat.data;
  plant m.Model.cov.(0).Mat.data;
  plant m.Model.r.Mat.data;
  let img = Snapshot.encode m in
  let m' = Snapshot.decode img in
  check_true "NaN/−0/subnormal payloads round-trip bitwise" (Model.equal m' m);
  check_true "and re-encode byte-identically"
    (String.equal (Snapshot.encode m') img)

let test_snapshot_truncation () =
  let img = Snapshot.encode (synth_model ()) in
  let n = String.length img in
  (* Every header cut, then payload cuts sampled across the image. *)
  let cuts = ref [] in
  for len = 0 to 32 do cuts := len :: !cuts done;
  let step = max 1 ((n - 33) / 19) in
  let len = ref 33 in
  while !len < n do
    cuts := !len :: !cuts;
    len := !len + step
  done;
  List.iter
    (fun len ->
      expect_bad
        (Printf.sprintf "truncated at %d/%d" len n)
        (fun () -> Snapshot.decode (String.sub img 0 len)))
    !cuts

let flip_bit s bit =
  let b = Bytes.of_string s in
  let i = bit / 8 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit mod 8))));
  Bytes.to_string b

let test_snapshot_bit_flips () =
  let img = Snapshot.encode (synth_model ()) in
  let n = String.length img in
  (* Header bytes exhaustively (rotating bit), payload bytes sampled:
     magic/version/reserved/length flips hit the field checks, payload
     flips the checksum. *)
  for byte = 0 to 31 do
    expect_bad
      (Printf.sprintf "header flip @%d" byte)
      (fun () -> Snapshot.decode (flip_bit img ((byte * 8) + (byte mod 8))))
  done;
  let step = max 1 ((n - 32) / 37) in
  let byte = ref 32 in
  while !byte < n do
    expect_bad
      (Printf.sprintf "payload flip @%d" !byte)
      (fun () -> Snapshot.decode (flip_bit img ((!byte * 8) + (!byte mod 8))));
    byte := !byte + step
  done

let test_snapshot_versioning () =
  let img = Snapshot.encode (synth_model ()) in
  let patch_byte i c =
    let b = Bytes.of_string img in
    Bytes.set b i c;
    Bytes.to_string b
  in
  (* The version field is not covered by the payload checksum, so a
     future-version file is structurally pristine — it must still be
     refused, with the version named in the reason. *)
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec scan i =
      i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1))
    in
    scan 0
  in
  (match Snapshot.decode (patch_byte 8 '\x02') with
  | _ -> Alcotest.fail "future version accepted"
  | exception Fault.Error (Fault.Bad_snapshot { reason; _ }) ->
      check_true "reason names the version" (contains reason "version"));
  expect_bad "version 0" (fun () -> Snapshot.decode (patch_byte 8 '\x00'));
  expect_bad "reserved field nonzero" (fun () ->
      Snapshot.decode (patch_byte 12 '\x01'));
  expect_bad "trailing garbage" (fun () -> Snapshot.decode (img ^ "x"));
  expect_bad "empty image" (fun () -> Snapshot.decode "");
  expect_bad "foreign magic" (fun () ->
      Snapshot.decode ("NOTASNAP" ^ String.sub img 8 (String.length img - 8)))

let test_snapshot_file_io () =
  with_temp_dir (fun dir ->
      let m = synth_model () in
      let path = Filename.concat dir "m.snap" in
      Snapshot.save ~path m;
      check_true "no torn temp file left"
        (not (Sys.file_exists (path ^ ".tmp")));
      let m' = Snapshot.load ~path in
      check_true "file round-trip bit-identical" (Model.equal m' m);
      expect_bad "missing file" (fun () ->
          Snapshot.load ~path:(Filename.concat dir "absent.snap")))

let test_snapshot_injected_fault () =
  let m = synth_model () in
  let img = Snapshot.encode m in
  Inject.arm ~seed:11 ~prob:1.0 ~sites:[ "serve.decode" ] ();
  Fun.protect ~finally:Inject.disarm (fun () ->
      expect_bad "armed serve.decode" (fun () ->
          Snapshot.decode ~site:"serve.decode" img));
  check_true "decodes again once disarmed" (Model.equal (Snapshot.decode img) m)

(* --- Model ----------------------------------------------------------- *)

let test_model_validate_rejects () =
  let m = synth_model () in
  let bad name m' =
    match Model.validate m' with
    | Ok () -> Alcotest.failf "%s: validate accepted" name
    | Error _ -> ()
  in
  bad "col_scales length" { m with Model.col_scales = [| 1.0 |] };
  (let scales = Array.copy m.Model.col_scales in
   scales.(0) <- 0.0;
   bad "zero column scale" { m with Model.col_scales = scales });
  (let terms = Array.copy m.Model.terms in
   terms.(0) <- Term.Linear m.Model.input_dim;
   bad "term variable out of range" { m with Model.terms = terms });
  (let cov = Array.copy m.Model.cov in
   cov.(0) <- Mat.create 1 1;
   bad "cov block shape" { m with Model.cov = cov });
  bad "NaN sigma0" { m with Model.sigma0 = Float.nan };
  bad "zero y_scale" { m with Model.y_scale = 0.0 };
  bad "zero states" { m with Model.n_states = 0 }

let test_model_equal_is_bitwise () =
  let m = synth_model () in
  let img = Snapshot.encode m in
  let m' = Snapshot.decode img in
  check_true "copies equal" (Model.equal m m');
  m'.Model.mu.Mat.data.(0) <-
    Int64.float_of_bits
      (Int64.logxor 1L (Int64.bits_of_float m'.Model.mu.Mat.data.(0)));
  check_true "one flipped mantissa bit detected" (not (Model.equal m m'))

let test_model_invalid_args () =
  let m = synth_model () in
  check_raises_invalid "bad state" (fun () ->
      Model.predict m ~state:m.Model.n_states (Array.make m.Model.input_dim 0.0));
  check_raises_invalid "bad input length" (fun () ->
      Model.predict m ~state:0 (Array.make (m.Model.input_dim + 1) 0.0))

(* --- Registry -------------------------------------------------------- *)

let test_registry_basics () =
  let reg = Registry.create () in
  let m = synth_model () in
  Registry.put reg ~name:"b" m;
  Registry.put reg ~name:"a" m;
  check_true "names sorted" (Registry.names reg = [ "a"; "b" ]);
  check_true "get hits" (Model.equal (Registry.get reg ~name:"a") m);
  (match Registry.get reg ~name:"zzz" with
  | _ -> Alcotest.fail "unknown name returned a model"
  | exception Not_found -> ());
  check_true "find on unknown"
    (match Registry.find reg ~name:"zzz" with None -> true | Some _ -> false);
  Registry.remove reg ~name:"a";
  check_true "removed" (Registry.names reg = [ "b" ]);
  let s = Registry.stats reg in
  check_int "one resident left" 1 s.Registry.resident_models;
  check_true "hit counted" (s.Registry.hits >= 1)

let test_registry_lazy_and_lru () =
  with_temp_dir (fun dir ->
      let m = synth_model () in
      let b = Model.byte_size m in
      let path i =
        let p = Filename.concat dir (Printf.sprintf "m%d.snap" i) in
        Snapshot.save ~path:p m;
        p
      in
      (* Budget fits two residents, never three. *)
      let reg = Registry.create ~max_bytes:((2 * b) + (b / 2)) () in
      Registry.add_path reg ~name:"m1" (path 1);
      Registry.add_path reg ~name:"m2" (path 2);
      Registry.add_path reg ~name:"m3" (path 3);
      check_int "lazy slots are not resident" 0
        (Registry.stats reg).Registry.resident_models;
      ignore (Registry.get reg ~name:"m1") (* miss + load *);
      ignore (Registry.get reg ~name:"m1") (* hit *);
      ignore (Registry.get reg ~name:"m2") (* miss + load *);
      let s = Registry.stats reg in
      check_int "two resident" 2 s.Registry.resident_models;
      check_int "one hit" 1 s.Registry.hits;
      check_int "two misses" 2 s.Registry.misses;
      check_int "two loads" 2 s.Registry.loads;
      check_int "no evictions yet" 0 s.Registry.evictions;
      (* Loading m3 busts the budget: m1 (least recently used) demotes. *)
      ignore (Registry.get reg ~name:"m3");
      let s = Registry.stats reg in
      check_int "still two resident" 2 s.Registry.resident_models;
      check_int "one eviction" 1 s.Registry.evictions;
      check_true "budget respected" (s.Registry.resident_bytes <= (2 * b) + (b / 2));
      (* The demoted slot is lazy again, not gone: a hit reloads it. *)
      check_true "demoted slot still registered"
        (Registry.names reg = [ "m1"; "m2"; "m3" ]);
      let loads0 = s.Registry.loads in
      ignore (Registry.get reg ~name:"m1");
      check_int "demoted slot reloaded" (loads0 + 1)
        (Registry.stats reg).Registry.loads)

let test_registry_put_only_eviction () =
  with_temp_dir (fun dir ->
      let m = synth_model () in
      let b = Model.byte_size m in
      let p = Filename.concat dir "q.snap" in
      Snapshot.save ~path:p m;
      let reg = Registry.create ~max_bytes:(b + (b / 2)) () in
      Registry.put reg ~name:"p" m;
      Registry.add_path reg ~name:"q" p;
      (* Loading q evicts p; with no backing path, p is gone for good. *)
      ignore (Registry.get reg ~name:"q");
      check_true "path-less slot dropped on eviction"
        (match Registry.find reg ~name:"p" with
        | None -> true
        | Some _ -> false);
      check_true "only the path-backed slot survives"
        (Registry.names reg = [ "q" ]))

(* --- Engine ---------------------------------------------------------- *)

let check_batch_matches_scalar m n =
  let dim = m.Model.input_dim and k = m.Model.n_states in
  let xs = Mat.init n dim (fun _ _ -> g ()) in
  let states = Array.init n (fun i -> i * 7 mod k) in
  let means, sds = Engine.predict_batch m ~states ~xs in
  for i = 0 to n - 1 do
    let mean, sd = Model.predict m ~state:states.(i) (Mat.row xs i) in
    if not (bits_eq_f mean means.(i) && bits_eq_f sd sds.(i)) then
      Alcotest.failf "batch/scalar mismatch at point %d of %d" i n
  done

let test_engine_matches_scalar () =
  List.iter
    (fun (dim, k, a, n) -> check_batch_matches_scalar (synth_model ~dim ~k ~a ()) n)
    [ (4, 3, 6, 1); (6, 4, 10, 64) (* exactly one chunk *);
      (6, 4, 10, 130) (* spans three chunks *); (5, 2, 7, 200) ]

let test_engine_batch_of_one () =
  let m = synth_model () in
  let x = Array.init m.Model.input_dim (fun _ -> g ()) in
  let m1, s1 = Engine.predict m ~state:1 x in
  let m2, s2 = Model.predict m ~state:1 x in
  check_true "Engine.predict = Model.predict bitwise"
    (bits_eq_f m1 m2 && bits_eq_f s1 s2)

let test_engine_domain_invariance () =
  let m = synth_model ~dim:6 ~k:4 ~a:12 () in
  let n = 150 in
  let xs = Mat.init n m.Model.input_dim (fun _ _ -> g ()) in
  let states = Array.init n (fun i -> i mod m.Model.n_states) in
  let run d =
    Cbmf_parallel.Pool.set_default_size d;
    Engine.predict_batch m ~states ~xs
  in
  Fun.protect
    ~finally:(fun () ->
      Cbmf_parallel.Pool.set_default_size (Cbmf_parallel.Pool.env_domains ()))
    (fun () ->
      let m1, s1 = run 1 in
      let m2, s2 = run 2 in
      let m4, s4 = run 4 in
      check_true "1 vs 2 domains bit-identical" (bits_eq m1 m2 && bits_eq s1 s2);
      check_true "1 vs 4 domains bit-identical" (bits_eq m1 m4 && bits_eq s1 s4))

let test_engine_invalid_args () =
  let m = synth_model () in
  let dim = m.Model.input_dim in
  check_raises_invalid "states length mismatch" (fun () ->
      Engine.predict_batch m ~states:[| 0 |] ~xs:(Mat.create 2 dim));
  check_raises_invalid "wrong input dim" (fun () ->
      Engine.predict_batch m ~states:[| 0 |] ~xs:(Mat.create 1 (dim + 1)));
  check_raises_invalid "state out of range" (fun () ->
      Engine.predict_batch m ~states:[| m.Model.n_states |] ~xs:(Mat.create 1 dim))

(* --- Protocol -------------------------------------------------------- *)

let test_protocol_roundtrip () =
  let reqs =
    [ Protocol.Load { name = "m"; source = Protocol.Path "/tmp/m.snap" };
      Protocol.Load { name = ""; source = Protocol.Inline "raw \x00\xff bytes" };
      Protocol.Predict
        {
          name = "lna";
          states = [| 0; 3; 1 |];
          xs = Mat.init 3 2 (fun i j -> float_of_int ((10 * i) + j));
        };
      Protocol.Stats; Protocol.Shutdown ]
  in
  List.iter
    (fun req ->
      check_true "request round-trips"
        (Protocol.decode_request (Protocol.encode_request req) = req))
    reqs;
  let reps =
    [ Protocol.Loaded { n_active = 12; n_states = 4; bytes = 34_000 };
      Protocol.Predicted { means = [| 1.5; -2.25 |]; sds = [| 0.5; 0.125 |] };
      Protocol.Stats_json "{\"requests\":{}}"; Protocol.Shutting_down ]
    @ List.map
        (fun code -> Protocol.Error { code; message = "m" })
        [ Protocol.Bad_frame; Protocol.Unknown_op; Protocol.Bad_snapshot;
          Protocol.Model_not_found; Protocol.Bad_request; Protocol.Internal ]
  in
  List.iter
    (fun rep ->
      check_true "reply round-trips"
        (Protocol.decode_reply (Protocol.encode_reply rep) = rep))
    reps

let test_protocol_rejects () =
  let corrupt name f =
    match f () with
    | _ -> Alcotest.failf "%s: decoded" name
    | exception Codec.Corrupt _ -> ()
  in
  corrupt "garbage request" (fun () -> Protocol.decode_request "\xde\xad\xbe\xef");
  corrupt "empty request" (fun () -> Protocol.decode_request "");
  corrupt "unknown opcode" (fun () -> Protocol.decode_request "\x63");
  corrupt "trailing bytes" (fun () ->
      Protocol.decode_request (Protocol.encode_request Protocol.Stats ^ "\x00"));
  corrupt "truncated predict" (fun () ->
      let enc =
        Protocol.encode_request
          (Protocol.Predict
             { name = "m"; states = [| 0 |]; xs = Mat.create 1 3 })
      in
      Protocol.decode_request (String.sub enc 0 (String.length enc - 5)));
  corrupt "garbage reply" (fun () -> Protocol.decode_reply "\x7f\x00")

let test_protocol_framed_writer () =
  (* The zero-copy framed send paths must put byte-identical frames on
     the wire to the encode-then-frame path — read each frame back
     through the normal reader and compare with the string encoder. *)
  let xs = Mat.init 3 4 (fun i j -> float_of_int ((5 * i) - j) /. 7.0) in
  let reqs =
    [ Protocol.Stats;
      Protocol.Predict { name = "m"; states = [| 0; 2; 1 |]; xs };
      Protocol.Predict_deadline
        { name = "m"; states = [| 1; 1; 0 |]; xs; deadline_ms = 42 };
      Protocol.Load { name = "w"; source = Protocol.Inline "img \x00\xff" } ]
  in
  List.iter
    (fun req ->
      let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Protocol.write_request a req;
      let body = Protocol.read_frame b in
      Unix.close a;
      Unix.close b;
      check_true "framed request bytes identical"
        (String.equal body (Protocol.encode_request req)))
    reqs;
  let reps =
    [ Protocol.Predicted
        { means = [| 1.5; nan; infinity |]; sds = [| 0.25; 0.5; 1.0 |] };
      Protocol.Overloaded { queue_depth = 3; retry_after_ms = 17 };
      Protocol.Error { code = Protocol.Bad_request; message = "shape" } ]
  in
  List.iter
    (fun rep ->
      let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Protocol.write_reply a rep;
      let body = Protocol.read_frame b in
      Unix.close a;
      Unix.close b;
      check_true "framed reply bytes identical"
        (String.equal body (Protocol.encode_reply rep)))
    reps

let test_protocol_roundtrip_v2 () =
  (* The additive messages: ping/reload/deadline ops and their replies. *)
  let xs = Mat.init 2 3 (fun i j -> float_of_int ((7 * i) - j)) in
  let reqs =
    [ Protocol.Ping;
      Protocol.Reload { name = "m"; source = Protocol.Path "/tmp/m.snap" };
      Protocol.Reload { name = "m"; source = Protocol.Inline "img \x00\xff" };
      Protocol.Predict_deadline
        { name = "lna"; states = [| 1; 0 |]; xs; deadline_ms = 250 } ]
  in
  List.iter
    (fun req ->
      check_true "v2 request round-trips"
        (Protocol.decode_request (Protocol.encode_request req) = req))
    reqs;
  let reps =
    [ Protocol.Pong { generation = 7 };
      Protocol.Reloaded { generation = 3; n_active = 9; n_states = 4; bytes = 512 };
      Protocol.Overloaded { queue_depth = 12; retry_after_ms = 50 };
      Protocol.Error { code = Protocol.Deadline_exceeded; message = "late" } ]
  in
  List.iter
    (fun rep ->
      check_true "v2 reply round-trips"
        (Protocol.decode_reply (Protocol.encode_reply rep) = rep))
    reps

let test_protocol_wire_compat () =
  (* The pre-deadline/reload wire encoding is frozen.  A request body
     hand-rolled exactly as the old encoder wrote it must decode to the
     same value, and the old messages must keep claiming their old
     opcode/tag bytes — additive versioning means old clients never see
     a byte they don't know. *)
  let xs = Mat.init 2 3 (fun i j -> float_of_int ((5 * i) + j) +. 0.25) in
  let old_predict_body =
    let w = Codec.writer () in
    Codec.w_u8 w 2 (* frozen op_predict *);
    Codec.w_string w "m";
    Codec.w_u32_array w [| 0; 1 |];
    Codec.w_mat w xs;
    Codec.contents w
  in
  (match Protocol.decode_request old_predict_body with
  | Protocol.Predict { name; states; xs = xs' } ->
      check_true "old predict decodes intact"
        (name = "m" && states = [| 0; 1 |] && bits_eq xs.Mat.data xs'.Mat.data)
  | _ -> Alcotest.fail "old predict bytes decoded to something else");
  let first_byte s = Char.code s.[0] in
  List.iter
    (fun (req, op) ->
      check_int "frozen opcode" op (first_byte (Protocol.encode_request req)))
    [ (Protocol.Load { name = "m"; source = Protocol.Path "p" }, 1);
      (Protocol.Predict { name = "m"; states = [| 0 |]; xs = Mat.create 1 1 }, 2);
      (Protocol.Stats, 3); (Protocol.Shutdown, 4);
      (* ...and the new ops only ever claim fresh numbers. *)
      (Protocol.Ping, 5);
      (Protocol.Reload { name = "m"; source = Protocol.Path "p" }, 6);
      (Protocol.Predict_deadline
         { name = "m"; states = [| 0 |]; xs = Mat.create 1 1; deadline_ms = 1 },
       7) ];
  List.iter
    (fun (rep, tag) ->
      check_int "frozen reply tag" tag (first_byte (Protocol.encode_reply rep)))
    [ (Protocol.Loaded { n_active = 1; n_states = 1; bytes = 1 }, 1);
      (Protocol.Predicted { means = [||]; sds = [||] }, 2);
      (Protocol.Stats_json "{}", 3); (Protocol.Shutting_down, 4);
      (Protocol.Pong { generation = 0 }, 5);
      (Protocol.Reloaded { generation = 1; n_active = 1; n_states = 1; bytes = 1 },
       6);
      (Protocol.Overloaded { queue_depth = 0; retry_after_ms = 0 }, 7);
      (Protocol.Error { code = Protocol.Bad_frame; message = "" }, 255) ];
  (* Frozen error-code bytes, including the new code on a fresh number. *)
  List.iter
    (fun (code, n) ->
      let body = Protocol.encode_reply (Protocol.Error { code; message = "" }) in
      check_int "frozen error code" n (Char.code body.[1]))
    [ (Protocol.Bad_frame, 1); (Protocol.Unknown_op, 2);
      (Protocol.Bad_snapshot, 3); (Protocol.Model_not_found, 4);
      (Protocol.Bad_request, 5); (Protocol.Internal, 6);
      (Protocol.Deadline_exceeded, 7) ]

(* --- Registry generations -------------------------------------------- *)

let test_registry_reload_generation () =
  with_temp_dir (fun dir ->
      let m1 = synth_model ~dim:5 ~k:3 ~a:8 () in
      let m2 = synth_model ~dim:6 ~k:2 ~a:7 () in
      let reg = Registry.create () in
      check_int "unknown name is generation 0" 0
        (Registry.generation reg ~name:"x");
      Registry.put reg ~name:"x" m1;
      check_int "put is generation 1" 1 (Registry.generation reg ~name:"x");
      let gen = Registry.reload reg ~name:"x" m2 in
      check_int "reload bumps to 2" 2 gen;
      check_true "new model visible immediately"
        (Model.equal (Registry.get reg ~name:"x") m2);
      (* A corrupt snapshot must not touch the slot: typed fault out,
         old model keeps serving, generation unchanged. *)
      let bad = Filename.concat dir "bad.snap" in
      let oc = open_out_bin bad in
      output_string oc "not a snapshot";
      close_out oc;
      expect_bad "corrupt reload_path" (fun () ->
          Registry.reload_path reg ~name:"x" bad);
      check_true "old model still serving after failed reload"
        (Model.equal (Registry.get reg ~name:"x") m2);
      check_int "generation unchanged by failed reload" 2
        (Registry.generation reg ~name:"x");
      (* A good snapshot swaps in and re-binds the slot to the path. *)
      let good = Filename.concat dir "good.snap" in
      Snapshot.save ~path:good m1;
      let m', gen = Registry.reload_path reg ~name:"x" good in
      check_int "path reload bumps to 3" 3 gen;
      check_true "decoded model returned" (Model.equal m' m1);
      check_true "swapped model visible"
        (Model.equal (Registry.get reg ~name:"x") m1);
      let s = Registry.stats reg in
      check_int "two successful reloads counted" 2 s.Registry.reloads;
      check_int "global generation counts every swap" 3 s.Registry.generation)

let test_registry_concurrent () =
  (* Parallel readers, a reload writer and a put/remove churner on one
     registry: no reader may ever observe a torn model (anything other
     than bit-exactly one of the two swapped values), and the final
     accounting must balance. *)
  let m_a = synth_model ~dim:5 ~k:3 ~a:8 () in
  let m_b = synth_model ~dim:7 ~k:2 ~a:6 () in
  let reg = Registry.create () in
  Registry.put reg ~name:"hot" m_a;
  let swaps = 200 in
  let writer_done = ref false in
  let torn = ref 0 in
  let writer =
    Thread.create
      (fun () ->
        for i = 1 to swaps do
          ignore (Registry.reload reg ~name:"hot" (if i land 1 = 0 then m_a else m_b))
        done;
        writer_done := true)
      ()
  in
  let readers =
    List.init 4 (fun _ ->
        Thread.create
          (fun () ->
            let last_gen = ref 0 in
            while not !writer_done do
              (match Registry.find reg ~name:"hot" with
              | Some m ->
                  if not (Model.equal m m_a || Model.equal m m_b) then incr torn
              | None -> incr torn);
              (* The per-slot generation is monotone under swaps. *)
              let g = Registry.generation reg ~name:"hot" in
              if g < !last_gen then incr torn;
              last_gen := g;
              Thread.yield ()
            done)
          ())
  in
  let churner =
    Thread.create
      (fun () ->
        for i = 0 to 99 do
          let name = Printf.sprintf "tmp%d" (i mod 7) in
          Registry.put reg ~name m_a;
          if i mod 3 = 0 then Registry.remove reg ~name
        done)
      ()
  in
  Thread.join writer;
  List.iter Thread.join readers;
  Thread.join churner;
  check_int "no torn reads" 0 !torn;
  check_int "slot generation = put + every swap" (swaps + 1)
    (Registry.generation reg ~name:"hot");
  let s = Registry.stats reg in
  check_int "every swap counted as a reload" swaps s.Registry.reloads;
  (* Resident accounting balances: stats vs a fresh walk of the slots. *)
  let names = Registry.names reg in
  let bytes =
    List.fold_left
      (fun acc name ->
        match Registry.find reg ~name with
        | Some m -> acc + Model.byte_size m
        | None -> acc)
      0 names
  in
  check_int "resident model count balances" (List.length names)
    s.Registry.resident_models;
  check_int "resident byte accounting balances" bytes s.Registry.resident_bytes

(* --- Engine deadlines ------------------------------------------------- *)

let test_engine_deadline () =
  let m = synth_model ~dim:6 ~k:4 ~a:10 () in
  let n = 150 in
  let xs = Mat.init n m.Model.input_dim (fun _ _ -> g ()) in
  let states = Array.init n (fun i -> i mod m.Model.n_states) in
  (* A generous budget changes nothing, bit for bit. *)
  let m0, s0 = Engine.predict_batch m ~states ~xs in
  let m1, s1 =
    Engine.predict_batch ~deadline:(Unix.gettimeofday () +. 60.0) m ~states ~xs
  in
  check_true "generous deadline bit-identical" (bits_eq m0 m1 && bits_eq s0 s1);
  (* An already-expired budget raises the typed fault, site-tagged. *)
  match Engine.predict_batch ~deadline:(Unix.gettimeofday () -. 1.0) m ~states ~xs with
  | _ -> Alcotest.fail "expired deadline completed"
  | exception Fault.Error (Fault.Early_stop { site; _ }) ->
      check_true "fault carries the serve.deadline site"
        (String.equal site Engine.deadline_site)

(* --- Client/server loopback over a socketpair ------------------------ *)

let with_loopback registry f =
  let srv_fd, cl_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let th = Thread.create (fun () -> Server.serve_fd ~registry srv_fd) () in
  let client = Client.of_fd cl_fd in
  Fun.protect
    ~finally:(fun () ->
      (try Client.close client with Unix.Unix_error _ -> ());
      Thread.join th)
    (fun () -> f client)

let test_loopback_serving () =
  let m = synth_model ~dim:5 ~k:3 ~a:8 () in
  let registry = Registry.create () in
  Registry.put registry ~name:"m" m;
  with_loopback registry (fun c ->
      (* Predictions over the wire match the local engine bitwise. *)
      let n = 17 in
      let xs = Mat.init n m.Model.input_dim (fun _ _ -> g ()) in
      let states = Array.init n (fun i -> i mod m.Model.n_states) in
      let lm, ls = Engine.predict_batch m ~states ~xs in
      (match Client.predict_typed c ~name:"m" ~states ~xs with
      | Ok (rm, rs) ->
          check_true "served predictions bit-identical"
            (bits_eq lm rm && bits_eq ls rs)
      | Error f -> Alcotest.failf "predict: %s" (Client.failure_to_string f));
      (* Inline load, then predict against the shipped model. *)
      (match Client.load_inline c ~name:"w" ~image:(Snapshot.encode m) with
      | Ok (n_active, n_states, _) ->
          check_true "loaded shape"
            (n_active = Model.n_active m && n_states = m.Model.n_states)
      | Error e -> Alcotest.failf "load_inline: %s" e);
      (match Client.predict_typed c ~name:"w" ~states ~xs with
      | Ok (rm, rs) ->
          check_true "inline-loaded model serves identically"
            (bits_eq lm rm && bits_eq ls rs)
      | Error f ->
          Alcotest.failf "predict after load: %s" (Client.failure_to_string f));
      Client.shutdown c)

let test_loopback_errors () =
  let m = synth_model ~dim:4 ~k:2 ~a:5 () in
  let registry = Registry.create () in
  Registry.put registry ~name:"m" m;
  with_loopback registry (fun c ->
      let expect_code name code = function
        | Error (Client.Server_error { code = got; _ }) when got = code -> ()
        | _ -> Alcotest.failf "%s: expected %s" name (Protocol.error_code_name code)
      in
      (* Unknown model. *)
      expect_code "unknown model" Protocol.Model_not_found
        (Client.call c
           (Protocol.Predict
              { name = "nope"; states = [| 0 |]; xs = Mat.create 1 4 }));
      (* Shape mismatch from the engine. *)
      expect_code "bad shape" Protocol.Bad_request
        (Client.call c
           (Protocol.Predict { name = "m"; states = [| 0 |]; xs = Mat.create 1 9 }));
      (* Corrupt inline snapshot. *)
      expect_code "corrupt image" Protocol.Bad_snapshot
        (Client.call c
           (Protocol.Load { name = "x"; source = Protocol.Inline "garbage" }));
      (* Injected decode fault: same typed reply as real corruption. *)
      Inject.arm ~seed:5 ~prob:1.0 ~sites:[ "serve.decode" ] ();
      Fun.protect ~finally:Inject.disarm (fun () ->
          expect_code "injected decode fault" Protocol.Bad_snapshot
            (Client.call c
               (Protocol.Load
                  { name = "x"; source = Protocol.Inline (Snapshot.encode m) })));
      (* Malformed frame: typed error, connection survives. *)
      (match Client.send_raw c "\xde\xad\xbe\xef" with
      | Protocol.Error { code = Protocol.Bad_frame; _ } -> ()
      | _ -> Alcotest.fail "malformed frame: expected bad-frame");
      (match
         Client.predict_typed c ~name:"m" ~states:[| 1 |] ~xs:(Mat.create 1 4)
       with
      | Ok _ -> ()
      | Error f ->
          Alcotest.failf "connection died after bad frame: %s"
            (Client.failure_to_string f));
      (* Stats blob reaches the client. *)
      (match Client.stats c with
      | Ok json ->
          check_true "stats is json" (String.length json > 2 && json.[0] = '{')
      | Error e -> Alcotest.failf "stats: %s" e);
      Client.shutdown c)

let test_loopback_wire_compat () =
  (* A client built before ping/reload/deadlines existed: its predict
     frames are hand-rolled with the frozen pre-extension encoding and
     must keep getting byte-correct predict replies. *)
  let m = synth_model ~dim:5 ~k:3 ~a:8 () in
  let registry = Registry.create () in
  Registry.put registry ~name:"m" m;
  with_loopback registry (fun c ->
      let n = 9 in
      let xs = Mat.init n m.Model.input_dim (fun _ _ -> g ()) in
      let states = Array.init n (fun i -> i mod m.Model.n_states) in
      let lm, ls = Engine.predict_batch m ~states ~xs in
      let old_body =
        let w = Codec.writer () in
        Codec.w_u8 w 2 (* frozen op_predict *);
        Codec.w_string w "m";
        Codec.w_u32_array w states;
        Codec.w_mat w xs;
        Codec.contents w
      in
      (match Client.send_raw c old_body with
      | Protocol.Predicted { means; sds } ->
          check_true "old-wire predict answered bit-identically"
            (bits_eq lm means && bits_eq ls sds)
      | _ -> Alcotest.fail "old-wire predict got a non-predict reply");
      Client.shutdown c)

let test_loopback_deadline () =
  let m = synth_model ~dim:5 ~k:3 ~a:8 () in
  let registry = Registry.create () in
  Registry.put registry ~name:"m" m;
  with_loopback registry (fun c ->
      let n = 20 in
      let xs = Mat.init n m.Model.input_dim (fun _ _ -> g ()) in
      let states = Array.init n (fun i -> i mod m.Model.n_states) in
      let lm, ls = Engine.predict_batch m ~states ~xs in
      (* Generous client budget: identical answer. *)
      (match Client.predict_typed ~deadline_ms:60_000 c ~name:"m" ~states ~xs with
      | Ok (rm, rs) ->
          check_true "deadline predict bit-identical" (bits_eq lm rm && bits_eq ls rs)
      | Error f -> Alcotest.failf "deadline predict: %s" (Client.failure_to_string f));
      (* Zero budget: typed Deadline_exceeded, not a hang or a hangup. *)
      (match Client.predict_typed ~deadline_ms:0 c ~name:"m" ~states ~xs with
      | Error (Client.Server_error { code = Protocol.Deadline_exceeded; _ }) -> ()
      | Ok _ -> Alcotest.fail "zero deadline succeeded"
      | Error f ->
          Alcotest.failf "zero deadline: %s" (Client.failure_to_string f));
      (* The connection survives a deadline miss. *)
      (match Client.predict_typed c ~name:"m" ~states ~xs with
      | Ok (rm, rs) ->
          check_true "connection healthy after deadline miss"
            (bits_eq lm rm && bits_eq ls rs)
      | Error f -> Alcotest.failf "after miss: %s" (Client.failure_to_string f));
      Client.shutdown c)

let test_loopback_reload () =
  (* Hot swap over the wire: predicts before and after must match the
     respective models bitwise, the generation must advance, and a
     corrupt image must leave the old model serving. *)
  let m1 = synth_model ~dim:5 ~k:3 ~a:8 () in
  let m2 = synth_model ~dim:5 ~k:3 ~a:8 () in
  let registry = Registry.create () in
  Registry.put registry ~name:"m" m1;
  with_loopback registry (fun c ->
      let n = 11 in
      let xs = Mat.init n m1.Model.input_dim (fun _ _ -> g ()) in
      let states = Array.init n (fun i -> i mod m1.Model.n_states) in
      let expect model tag =
        let lm, ls = Engine.predict_batch model ~states ~xs in
        match Client.predict_typed c ~name:"m" ~states ~xs with
        | Ok (rm, rs) ->
            check_true tag (bits_eq lm rm && bits_eq ls rs)
        | Error f -> Alcotest.failf "%s: %s" tag (Client.failure_to_string f)
      in
      expect m1 "serving m1 before reload";
      (match Client.ping c with
      | Ok gen -> check_int "generation before reload" 1 gen
      | Error f -> Alcotest.failf "ping: %s" (Client.failure_to_string f));
      (match Client.reload_inline c ~name:"m" ~image:(Snapshot.encode m2) with
      | Ok (generation, n_active, n_states, _) ->
          check_int "slot generation bumped" 2 generation;
          check_true "reloaded shape"
            (n_active = Model.n_active m2 && n_states = m2.Model.n_states)
      | Error f -> Alcotest.failf "reload: %s" (Client.failure_to_string f));
      expect m2 "serving m2 after reload";
      (* Bad image: typed error, m2 keeps serving, generation frozen. *)
      (match Client.reload_inline c ~name:"m" ~image:"garbage" with
      | Error (Client.Server_error { code = Protocol.Bad_snapshot; _ }) -> ()
      | Ok _ -> Alcotest.fail "corrupt reload accepted"
      | Error f -> Alcotest.failf "corrupt reload: %s" (Client.failure_to_string f));
      expect m2 "old model survives failed reload";
      (match Client.ping c with
      | Ok gen -> check_int "generation frozen by failed reload" 2 gen
      | Error f -> Alcotest.failf "ping: %s" (Client.failure_to_string f));
      Client.shutdown c)

let test_client_connection_lost () =
  (* Every transport death folds into the typed retryable constructor —
     never a raw exception out of the _typed entry points. *)
  let xs = Mat.create 1 4 in
  (* Peer closed before the request: the write or the reply read dies. *)
  let srv_fd, cl_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.close srv_fd;
  let c = Client.of_fd cl_fd in
  (match Client.predict_typed c ~name:"m" ~states:[| 0 |] ~xs with
  | Error (Client.Connection_lost _) -> ()
  | Ok _ -> Alcotest.fail "predict against closed peer succeeded"
  | Error f -> Alcotest.failf "expected Connection_lost, got %s"
      (Client.failure_to_string f));
  Client.close c;
  (* Peer hangs up after reading the request (a crashed worker). *)
  let srv_fd, cl_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let th =
    Thread.create
      (fun () ->
        (try ignore (Protocol.read_frame srv_fd) with _ -> ());
        Unix.close srv_fd)
      ()
  in
  let c = Client.of_fd cl_fd in
  (match Client.predict_typed c ~name:"m" ~states:[| 0 |] ~xs with
  | Error (Client.Connection_lost _) -> ()
  | Ok _ -> Alcotest.fail "predict against hangup succeeded"
  | Error f -> Alcotest.failf "expected Connection_lost, got %s"
      (Client.failure_to_string f));
  Thread.join th;
  Client.close c;
  check_true "retryable taxonomy"
    (Client.retryable (Client.Connection_lost "x")
    && Client.retryable (Client.Overloaded { queue_depth = 1; retry_after_ms = 1 })
    && (not
          (Client.retryable
             (Client.Server_error
                { code = Protocol.Model_not_found; message = "" })))
    && not (Client.retryable (Client.Unexpected "x")))

let test_client_stale_reply () =
  (* A fake server answers the first request only after the client's
     receive timeout, then answers the second at once.  The timed-out
     client must stay lost: reading on would hand it the first
     request's late reply as the answer to the second. *)
  let srv_fd, cl_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.setsockopt_float cl_fd Unix.SO_RCVTIMEO 0.05;
  let reply mean = Protocol.Predicted { means = [| mean |]; sds = [| 0.0 |] } in
  let th =
    Thread.create
      (fun () ->
        (try
           ignore (Protocol.read_frame srv_fd);
           Thread.delay 0.2;
           Protocol.write_reply srv_fd (reply 1.0);
           ignore (Protocol.read_frame srv_fd);
           Protocol.write_reply srv_fd (reply 2.0)
         with Protocol.Closed | Unix.Unix_error _ -> ());
        Unix.close srv_fd)
      ()
  in
  let c = Client.of_fd cl_fd in
  let predict () =
    Client.predict_typed c ~name:"m" ~states:[| 0 |] ~xs:(Mat.create 1 4)
  in
  (match predict () with
  | Error (Client.Connection_lost _) -> ()
  | _ -> Alcotest.fail "first request did not time out");
  Thread.delay 0.3 (* the late reply is now waiting in the socket *);
  (match predict () with
  | Error (Client.Connection_lost _) -> ()
  | Ok (means, _) ->
      Alcotest.failf "reused client answered with mean=%g" means.(0)
  | Error f ->
      Alcotest.failf "expected Connection_lost, got %s"
        (Client.failure_to_string f));
  check_true "client reports itself broken" (Client.broken c);
  Client.close c;
  Thread.join th

(* --- Full server: admission control, drain, failover ------------------ *)

let with_server_dir f =
  with_temp_dir (fun dir -> f dir)

let start_server ?(config = Server.default_config) ~dir ~name model =
  let registry = Registry.create () in
  Registry.put registry ~name model;
  let path = Filename.concat dir (Printf.sprintf "srv-%d.sock" (Unix.getpid ())) in
  Server.start ~config ~registry (Unix.ADDR_UNIX path)

let test_server_shed_overload () =
  let m = synth_model ~dim:4 ~k:2 ~a:5 () in
  with_server_dir (fun dir ->
      let config =
        { Server.default_config with
          workers = 1;
          queue_cap = 1;
          timeout = 5.0;
          retry_after_ms = 17;
        }
      in
      let srv = start_server ~config ~dir ~name:"m" m in
      let addr = Server.addr srv in
      let conn () =
        let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd addr;
        fd
      in
      (* Wedge the single worker with an idle connection, then fill the
         one queue slot with another; the third arrival must be shed
         with a typed Overloaded reply — the acceptor never blocks. *)
      let c0 = conn () in
      Thread.delay 0.05;
      let c1 = conn () in
      Thread.delay 0.05;
      let c2 = conn () in
      (match Protocol.decode_reply (Protocol.read_frame c2) with
      | Protocol.Overloaded { queue_depth; retry_after_ms } ->
          check_int "shed reply reports the queue depth" 1 queue_depth;
          check_int "shed reply carries the retry hint" 17 retry_after_ms
      | _ -> Alcotest.fail "third connection was not shed");
      (* The shed socket is closed server-side: EOF next. *)
      (match Protocol.read_frame c2 with
      | _ -> Alcotest.fail "shed connection stayed open"
      | exception Protocol.Closed -> ());
      Unix.close c2;
      check_true "shed counted" (Stats.sheds (Server.stats srv) >= 1);
      (* A request written after the shed landed hits a closed socket;
         the client still reads the typed reply and its retry hint. *)
      let late = Client.connect addr in
      Thread.delay 0.05;
      (match Client.predict_typed late ~name:"m" ~states:[| 0 |]
               ~xs:(Mat.init 1 4 (fun _ _ -> g ()))
       with
      | Error (Client.Overloaded { queue_depth = 1; retry_after_ms = 17 }) -> ()
      | Ok _ -> Alcotest.fail "late client served past a full queue"
      | Error f ->
          Alcotest.failf "late client: %s" (Client.failure_to_string f));
      Client.close late;
      (* Accepted connections still serve normally. *)
      let cl = Client.of_fd c0 in
      (match Client.predict_typed cl ~name:"m" ~states:[| 0 |]
               ~xs:(Mat.init 1 4 (fun _ _ -> g ()))
       with
      | Ok _ -> ()
      | Error f -> Alcotest.failf "wedged conn predict: %s"
          (Client.failure_to_string f));
      Client.close cl;
      Unix.close c1;
      Server.stop srv)

let test_server_graceful_drain () =
  let m = synth_model ~dim:5 ~k:3 ~a:8 () in
  with_server_dir (fun dir ->
      let config =
        { Server.default_config with workers = 1; drain_timeout = 2.0 }
      in
      let srv = start_server ~config ~dir ~name:"m" m in
      let addr = Server.addr srv in
      let n = 40 in
      let xs = Mat.init n m.Model.input_dim (fun _ _ -> g ()) in
      let states = Array.init n (fun i -> i mod m.Model.n_states) in
      let lm, ls = Engine.predict_batch m ~states ~xs in
      (* Slow the reply down so the stop request provably lands while
         the request is in flight. *)
      Inject.arm ~seed:3 ~prob:1.0 ~sites:[ "serve.slow_reply" ] ();
      Fun.protect ~finally:Inject.disarm (fun () ->
          let c = Client.connect addr in
          let result = ref (Error (Client.Unexpected "not run")) in
          let th =
            Thread.create
              (fun () -> result := Client.predict_typed c ~name:"m" ~states ~xs)
              ()
          in
          Thread.delay 0.005;
          Server.request_stop srv;
          Thread.join th;
          (match !result with
          | Ok (rm, rs) ->
              check_true "in-flight predict survived stop bit-identically"
                (bits_eq lm rm && bits_eq ls rs)
          | Error f ->
              Alcotest.failf "in-flight predict dropped by stop: %s"
                (Client.failure_to_string f));
          Client.close c;
          Server.wait srv))

let test_server_drain_cutoff () =
  (* A connection that is idle (wedging its worker) must not block
     shutdown forever: past drain_timeout it is cut off cleanly and
     stop returns. *)
  let m = synth_model ~dim:4 ~k:2 ~a:5 () in
  with_server_dir (fun dir ->
      let config =
        { Server.default_config with workers = 1; drain_timeout = 0.2 }
      in
      let srv = start_server ~config ~dir ~name:"m" m in
      let addr = Server.addr srv in
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd addr;
      Thread.delay 0.05 (* let the worker pick it up *);
      let t0 = Unix.gettimeofday () in
      Server.stop srv;
      let elapsed = Unix.gettimeofday () -. t0 in
      check_true "stop bounded by the drain window" (elapsed < 2.0);
      (* The wedged client sees a clean close, not garbage. *)
      (match Protocol.read_frame fd with
      | _ -> Alcotest.fail "cut-off connection produced a frame"
      | exception Protocol.Closed -> ()
      | exception Codec.Corrupt _ -> ()
      | exception Unix.Unix_error _ -> ());
      Unix.close fd)

let test_with_failover () =
  let m = synth_model ~dim:5 ~k:3 ~a:8 () in
  with_server_dir (fun dir ->
      let srv = start_server ~dir ~name:"m" m in
      let live = Server.addr srv in
      let dead = Unix.ADDR_UNIX (Filename.concat dir "nobody-home.sock") in
      let n = 7 in
      let xs = Mat.init n m.Model.input_dim (fun _ _ -> g ()) in
      let states = Array.init n (fun i -> i mod m.Model.n_states) in
      let lm, ls = Engine.predict_batch m ~states ~xs in
      (* First replica dead: failover lands on the second. *)
      (match
         Client.with_failover ~base_backoff:0.001 [ dead; live ] (fun c ->
             Client.predict_typed c ~name:"m" ~states ~xs)
       with
      | Ok (rm, rs) ->
          check_true "failover answer bit-identical" (bits_eq lm rm && bits_eq ls rs)
      | Error f -> Alcotest.failf "failover: %s" (Client.failure_to_string f));
      (* Typed server answers are final — no retry storm on user error. *)
      (match
         Client.with_failover ~base_backoff:0.001 [ live ] (fun c ->
             Client.predict_typed c ~name:"nope" ~states ~xs)
       with
      | Error (Client.Server_error { code = Protocol.Model_not_found; _ }) -> ()
      | Ok _ -> Alcotest.fail "predict of unknown model succeeded"
      | Error f -> Alcotest.failf "expected Model_not_found: %s"
          (Client.failure_to_string f));
      (* All replicas dead: attempts exhaust into the last failure. *)
      (match
         Client.with_failover ~attempts:3 ~base_backoff:0.001 [ dead ] (fun c ->
             Client.predict_typed c ~name:"m" ~states ~xs)
       with
      | Error (Client.Connection_lost _) -> ()
      | Ok _ -> Alcotest.fail "dead replica answered"
      | Error f -> Alcotest.failf "expected Connection_lost: %s"
          (Client.failure_to_string f));
      Server.stop srv)

let test_supervisor_failover () =
  let m = synth_model ~dim:5 ~k:3 ~a:8 () in
  with_server_dir (fun dir ->
      let make index =
        let registry = Registry.create () in
        Registry.put registry ~name:"m" m;
        let path = Filename.concat dir (Printf.sprintf "repl-%d.sock" index) in
        Server.start
          ~config:{ Server.default_config with workers = 2 }
          ~registry (Unix.ADDR_UNIX path)
      in
      let sup =
        Supervisor.start ~health_interval:0.02 ~base_backoff:0.02
          ~ping_timeout:0.3 ~n:2 make
      in
      Fun.protect ~finally:(fun () -> Supervisor.stop sup) (fun () ->
          let addrs = Supervisor.addrs sup in
          check_int "two replicas up" 2 (List.length addrs);
          let n = 7 in
          let xs = Mat.init n m.Model.input_dim (fun _ _ -> g ()) in
          let states = Array.init n (fun i -> i mod m.Model.n_states) in
          let lm, ls = Engine.predict_batch m ~states ~xs in
          let check_serving tag =
            match
              Client.with_failover ~base_backoff:0.005 ~timeout:0.5
                (Supervisor.addrs sup)
                (fun c -> Client.predict_typed c ~name:"m" ~states ~xs)
            with
            | Ok (rm, rs) -> check_true tag (bits_eq lm rm && bits_eq ls rs)
            | Error f -> Alcotest.failf "%s: %s" tag (Client.failure_to_string f)
          in
          check_serving "both replicas serving";
          (* Kill replica 0 out from under the supervisor. *)
          let victim = List.hd addrs in
          let c = Client.connect victim in
          Client.shutdown c;
          Client.close c;
          (* The fleet keeps answering throughout via failover... *)
          check_serving "serving through the crash";
          (* ...and the supervisor restarts the victim. *)
          let deadline = Unix.gettimeofday () +. 10.0 in
          let rec await () =
            if Supervisor.restarts sup >= 1 then ()
            else if Unix.gettimeofday () > deadline then
              Alcotest.fail "supervisor never restarted the dead replica"
            else begin
              Thread.delay 0.02;
              await ()
            end
          in
          await ();
          (* The restarted replica itself answers again (poll: it may
             still be mid-spawn for a moment). *)
          let deadline = Unix.gettimeofday () +. 10.0 in
          let rec await_serving () =
            let answered =
              match
                Client.with_failover ~attempts:2 ~base_backoff:0.005
                  ~timeout:0.5 [ victim ]
                  (fun c -> Client.predict_typed c ~name:"m" ~states ~xs)
              with
              | Ok (rm, rs) -> bits_eq lm rm && bits_eq ls rs
              | Error _ -> false
            in
            if answered then ()
            else if Unix.gettimeofday () > deadline then
              Alcotest.fail "restarted replica never answered"
            else begin
              Thread.delay 0.05;
              await_serving ()
            end
          in
          await_serving ()))

(* --- Fault taxonomy integration -------------------------------------- *)

let test_bad_snapshot_fault () =
  let f = Fault.Bad_snapshot { site = "snapshot.load"; reason = "short header" } in
  check_true "rendering"
    (String.equal "bad-snapshot @snapshot.load: short header" (Fault.to_string f));
  check_true "class" (Fault.class_of f = Fault.C_bad_snapshot);
  check_true "class name"
    (String.equal "bad-snapshot" (Fault.class_name Fault.C_bad_snapshot));
  check_true "site" (String.equal "snapshot.load" (Fault.site f));
  (* Diag sorts deterministically by rendering: bad-snapshot sorts
     ahead of not-pd and worker-error. *)
  let d = Diag.create () in
  Diag.record d (Fault.Worker_error { site = "pool"; message = "boom" });
  Diag.record d f;
  Diag.record d (Fault.Not_pd { site = "chol.factorize"; dim = 3; tries = 2 });
  let faults = Diag.faults d in
  check_int "all recorded" 3 (Array.length faults);
  check_true "deterministic order" (faults.(0) = f);
  check_int "counted by class" 1 (Diag.count_class d Fault.C_bad_snapshot)

(* --- Dynamic batcher -------------------------------------------------- *)

(* A request set with uneven shapes, plus each request's solo engine
   answer for bitwise comparison. *)
let batch_requests m n_reqs =
  Array.init n_reqs (fun i ->
      let n = 3 + (i mod 5) in
      let xs = Mat.init n m.Model.input_dim (fun _ _ -> g ()) in
      let states = Array.init n (fun j -> (i + j) mod m.Model.n_states) in
      let expect = Engine.predict_batch m ~states ~xs in
      (states, xs, expect))

(* Submit every request from its own thread; returns each thread's
   outcome (result or exception). *)
let submit_all b m reqs =
  let out = Array.make (Array.length reqs) None in
  let ths =
    Array.mapi
      (fun i (states, xs, _) ->
        Thread.create
          (fun () ->
            out.(i) <-
              Some
                (match Batcher.submit b ~model:m ~states ~xs () with
                | r -> Ok r
                | exception e -> Error e))
          ())
      reqs
  in
  Array.iter Thread.join ths;
  Array.map Option.get out

let check_all_bit_identical tag reqs out =
  Array.iteri
    (fun i (_, _, (em, es)) ->
      match out.(i) with
      | Ok (rm, rs) ->
          check_true tag (bits_eq em rm && bits_eq es rs)
      | Error e -> Alcotest.failf "%s: request %d raised %s" tag i
                     (Printexc.to_string e))
    reqs

let test_batcher_bit_identity () =
  (* Concurrent submits from 8 threads against one model coalesce into
     merged engine calls; every reply must equal its solo engine
     answer bit for bit.  The window is generous so every thread's
     request lands in the first flush, making the coalescing (not just
     the fallback solo path) the thing under test. *)
  let m = synth_model ~dim:5 ~k:3 ~a:8 () in
  let stats = Stats.create () in
  let b = Batcher.create ~stats ~window_us:100_000 ~max_points:100_000 () in
  let reqs = batch_requests m 8 in
  let out = submit_all b m reqs in
  Batcher.stop b;
  check_all_bit_identical "coalesced replies bit-identical" reqs out;
  (* Requests were 3-7 points each; an occupancy median above that
     proves at least two requests actually merged. *)
  check_true "requests coalesced across submitters"
    (Stats.phase_quantile stats `Occupancy 0.5 > 7.0)

let test_batcher_two_models () =
  (* Same window, two distinct models: merging must group by physical
     model, and both groups answer bit-identically. *)
  let m1 = synth_model ~dim:5 ~k:3 ~a:8 () in
  let m2 = synth_model ~dim:4 ~k:2 ~a:6 () in
  let b = Batcher.create ~window_us:50_000 ~max_points:100_000 () in
  let r1 = batch_requests m1 3 and r2 = batch_requests m2 3 in
  let out = Array.make 6 None in
  let spawn off m reqs =
    Array.mapi
      (fun i (states, xs, _) ->
        Thread.create
          (fun () ->
            out.(off + i) <-
              Some
                (match Batcher.submit b ~model:m ~states ~xs () with
                | r -> Ok r
                | exception e -> Error e))
          ())
      reqs
  in
  let ths = Array.append (spawn 0 m1 r1) (spawn 3 m2 r2) in
  Array.iter Thread.join ths;
  Batcher.stop b;
  let out = Array.map Option.get out in
  check_all_bit_identical "model-1 replies" r1 (Array.sub out 0 3);
  check_all_bit_identical "model-2 replies" r2 (Array.sub out 3 3)

let test_batcher_window_zero () =
  (* window = 0 degenerates to per-request serving: the engine is
     called inline (no drainer), answers are bit-identical, and no
     merged flush is ever recorded. *)
  let m = synth_model ~dim:5 ~k:3 ~a:8 () in
  let stats = Stats.create () in
  let b =
    Batcher.create ~stats ~window_us:0
      ~max_points:Server.default_config.batch_max ()
  in
  let reqs = batch_requests m 4 in
  Array.iter
    (fun (states, xs, (em, es)) ->
      let rm, rs = Batcher.submit b ~model:m ~states ~xs () in
      check_true "window=0 bit-identical" (bits_eq em rm && bits_eq es rs))
    reqs;
  Batcher.stop b;
  check_true "window=0 records no merged flushes"
    (Stats.phase_quantile stats `Occupancy 0.99 = 0.0)

let test_batcher_early_flush () =
  (* A full batch flushes immediately: with a 5 s window but an
     8-point cap, two 4-point submits must come back far sooner than
     the window. *)
  let m = synth_model ~dim:5 ~k:3 ~a:8 () in
  let b = Batcher.create ~window_us:5_000_000 ~max_points:8 () in
  let xs () = Mat.init 4 m.Model.input_dim (fun _ _ -> g ()) in
  let states = Array.init 4 (fun j -> j mod m.Model.n_states) in
  let mk_req () =
    let x = xs () in
    (states, x, Engine.predict_batch m ~states ~xs:x)
  in
  let reqs = [| mk_req (); mk_req () |] in
  let t0 = Unix.gettimeofday () in
  let out = submit_all b m reqs in
  let elapsed = Unix.gettimeofday () -. t0 in
  Batcher.stop b;
  check_all_bit_identical "early-flush replies bit-identical" reqs out;
  check_true "full batch flushed well before the window"
    (elapsed < 2.0)

let test_batcher_deadline_anchor () =
  (* Budgets are absolute and anchored at enqueue: a request whose
     budget is shorter than the batching window must come back as a
     typed deadline fault, never as a late success — parking cannot
     silently extend a budget. *)
  let m = synth_model ~dim:5 ~k:3 ~a:8 () in
  let b = Batcher.create ~window_us:150_000 ~max_points:100_000 () in
  let xs = Mat.init 5 m.Model.input_dim (fun _ _ -> g ()) in
  let states = Array.init 5 (fun j -> j mod m.Model.n_states) in
  let expect_deadline tag deadline =
    match Batcher.submit b ~deadline ~model:m ~states ~xs () with
    | _ -> Alcotest.failf "%s: expired request completed" tag
    | exception Fault.Error (Fault.Early_stop { site; _ }) ->
        check_true (tag ^ " carries the serve.deadline site")
          (String.equal site Engine.deadline_site)
  in
  expect_deadline "budget shorter than window"
    (Unix.gettimeofday () +. 0.02);
  expect_deadline "already-expired budget" (Unix.gettimeofday () -. 1.0);
  (* A budget comfortably past the window parks, merges and succeeds. *)
  let em, es = Engine.predict_batch m ~states ~xs in
  let rm, rs =
    Batcher.submit b
      ~deadline:(Unix.gettimeofday () +. 30.0)
      ~model:m ~states ~xs ()
  in
  check_true "generous budget bit-identical through the batcher"
    (bits_eq em rm && bits_eq es rs);
  Batcher.stop b

let test_batcher_validation_isolation () =
  (* One malformed request in the window must fail alone with the
     engine's own Invalid_argument while its window-mates succeed. *)
  let m = synth_model ~dim:5 ~k:3 ~a:8 () in
  let b = Batcher.create ~window_us:50_000 ~max_points:100_000 () in
  let good = batch_requests m 2 in
  let bad_xs = Mat.init 2 (m.Model.input_dim + 3) (fun _ _ -> g ()) in
  let bad_states = [| 0; 1 |] in
  let bad_out = ref None in
  let bad_th =
    Thread.create
      (fun () ->
        bad_out :=
          Some
            (match
               Batcher.submit b ~model:m ~states:bad_states ~xs:bad_xs ()
             with
            | r -> Ok r
            | exception e -> Error e))
      ()
  in
  let out = submit_all b m good in
  Thread.join bad_th;
  Batcher.stop b;
  check_all_bit_identical "window-mates unaffected" good out;
  match Option.get !bad_out with
  | Error (Invalid_argument _) -> ()
  | Error e ->
      Alcotest.failf "bad request: expected Invalid_argument, got %s"
        (Printexc.to_string e)
  | Ok _ -> Alcotest.fail "bad request succeeded"

let test_batcher_invalid_policy () =
  check_raises_invalid "negative window" (fun () ->
      Batcher.create ~window_us:(-1) ~max_points:8 ());
  check_raises_invalid "cap below 1" (fun () ->
      Batcher.create ~window_us:0 ~max_points:0 ());
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "bad-policy.sock" in
      check_raises_invalid "server with a negative window" (fun () ->
          Server.start
            ~config:{ Server.default_config with batch_window_us = -1 }
            (Unix.ADDR_UNIX path));
      check_true "nothing bound for a bad policy" (not (Sys.file_exists path)))

let test_batcher_cross_connection () =
  (* The server-level contract: several serve_fd connections sharing
     one batcher coalesce across descriptors, and every wire reply is
     bit-identical to the solo engine answer.  (The full Server.start
     wires the same pieces; serve_fd keeps the test socketpair-local.) *)
  let m = synth_model ~dim:5 ~k:3 ~a:8 () in
  let registry = Registry.create () in
  Registry.put registry ~name:"m" m;
  let stats = Stats.create () in
  let batcher =
    Batcher.create ~stats ~window_us:100_000 ~max_points:100_000 ()
  in
  let n_conns = 4 in
  let pairs =
    Array.init n_conns (fun _ ->
        Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0)
  in
  let servers =
    Array.map
      (fun (srv_fd, _) ->
        Thread.create
          (fun () -> Server.serve_fd ~stats ~batcher ~registry srv_fd)
          ())
      pairs
  in
  let reqs = batch_requests m n_conns in
  let out = Array.make n_conns None in
  let clients =
    Array.init n_conns (fun i ->
        Thread.create
          (fun () ->
            let c = Client.of_fd (snd pairs.(i)) in
            let states, xs, _ = reqs.(i) in
            out.(i) <- Some (Client.predict_typed c ~name:"m" ~states ~xs);
            Client.close c)
          ())
  in
  Array.iter Thread.join clients;
  Array.iter Thread.join servers;
  Batcher.stop batcher;
  Array.iteri
    (fun i (_, _, (em, es)) ->
      match Option.get out.(i) with
      | Ok (rm, rs) ->
          check_true "cross-connection reply bit-identical"
            (bits_eq em rm && bits_eq es rs)
      | Error f ->
          Alcotest.failf "connection %d: %s" i (Client.failure_to_string f))
    reqs;
  check_true "connections coalesced into merged calls"
    (Stats.phase_quantile stats `Occupancy 0.5 > 7.0)

(* --- Stats JSON --------------------------------------------------------- *)

let test_stats_json_golden () =
  (* The stats JSON bytes for a fixed sequence of records: the e2e
     benchmark parses the latency and phase buckets, so every
     histogram must keep rendering exactly like this. *)
  let s = Stats.create () in
  Alcotest.(check string) "empty stats JSON"
    "{\"requests\":{},\"errors\":0,\"points\":0,\"max_batch\":0,\"sheds\":0,\"deadline_exceeded\":0,\"queue_depth\":0,\"queue_peak\":0,\"latency_us\":{\"count\":0,\"p50\":0,\"p99\":0,\"buckets\":[]},\"phases\":{\"queue_wait_us\":{\"count\":0,\"p50\":0,\"p99\":0,\"buckets\":[]},\"batch_wait_us\":{\"count\":0,\"p50\":0,\"p99\":0,\"buckets\":[]},\"compute_us\":{\"count\":0,\"p50\":0,\"p99\":0,\"buckets\":[]}},\"batch_occupancy\":{\"flushes\":0,\"coalesced_requests\":0,\"max_points\":0,\"p50_points\":0,\"p99_points\":0,\"buckets\":[]}}"
    (Stats.to_json s);
  Stats.record s ~batch:8 ~op:"predict" ~ok:true ~seconds:0.0004;
  Stats.record s ~op:"predict" ~ok:false ~seconds:0.003;
  Stats.record s ~op:"load" ~ok:true ~seconds:0.02;
  Stats.record s ~op:"ping" ~ok:true ~seconds:0.0;
  Stats.record s ~batch:3 ~op:"predict" ~ok:true ~seconds:100.0;
  Stats.record_shed s;
  Stats.record_deadline s;
  Stats.set_queue_depth s 3;
  Stats.set_queue_depth s 1;
  Stats.record_queue_wait s ~seconds:0.00015;
  Stats.record_batch_phase s ~batch_wait:0.0002 ~compute:0.0011;
  Stats.record_batch_phase s ~batch_wait:0.0 ~compute:0.0008;
  Stats.record_flush s ~requests:2 ~points:11;
  Stats.record_flush s ~requests:1 ~points:0;
  Alcotest.(check string) "recorded stats JSON"
    "{\"requests\":{\"load\":1,\"ping\":1,\"predict\":3},\"errors\":1,\"points\":11,\"max_batch\":8,\"sheds\":1,\"deadline_exceeded\":1,\"queue_depth\":1,\"queue_peak\":3,\"latency_us\":{\"count\":5,\"p50\":5000,\"p99\":inf,\"buckets\":[[1,1],[500,1],[5000,1],[20000,1],[\"inf\",1]]},\"phases\":{\"queue_wait_us\":{\"count\":1,\"p50\":200,\"p99\":200,\"buckets\":[[200,1]]},\"batch_wait_us\":{\"count\":2,\"p50\":1,\"p99\":200,\"buckets\":[[1,1],[200,1]]},\"compute_us\":{\"count\":2,\"p50\":1000,\"p99\":2000,\"buckets\":[[1000,1],[2000,1]]}},\"batch_occupancy\":{\"flushes\":2,\"coalesced_requests\":3,\"max_points\":11,\"p50_points\":1,\"p99_points\":20,\"buckets\":[[1,1],[20,1]]},\"registry\":{\"hits\":1}}"
    (Stats.to_json ~extra:[ ("registry", "{\"hits\":1}") ] s)

(* --- Pipelined client ------------------------------------------------- *)

let test_predict_many () =
  let m = synth_model ~dim:5 ~k:3 ~a:8 () in
  let registry = Registry.create () in
  Registry.put registry ~name:"m" m;
  with_loopback registry (fun c ->
      let reqs =
        List.init 5 (fun i ->
            let n = 2 + i in
            let xs = Mat.init n m.Model.input_dim (fun _ _ -> g ()) in
            let states = Array.init n (fun j -> j mod m.Model.n_states) in
            (states, xs))
      in
      let expected =
        List.map
          (fun (states, xs) -> Engine.predict_batch m ~states ~xs)
          reqs
      in
      let results = Client.predict_many c ~name:"m" reqs in
      check_int "one result per request" (List.length reqs)
        (List.length results);
      List.iter2
        (fun (em, es) r ->
          match r with
          | Ok (rm, rs) ->
              check_true "pipelined reply bit-identical"
                (bits_eq em rm && bits_eq es rs)
          | Error f ->
              Alcotest.failf "pipelined predict: %s"
                (Client.failure_to_string f))
        expected results;
      (* A typed server error fails only its own slot. *)
      let good_xs = Mat.init 2 m.Model.input_dim (fun _ _ -> g ()) in
      let good = ([| 0; 1 |], good_xs) in
      let bad = ([| 0 |], Mat.create 1 (m.Model.input_dim + 1)) in
      (match Client.predict_many c ~name:"m" [ good; bad; good ] with
      | [ Ok _; Error (Client.Server_error { code = Protocol.Bad_request; _ });
          Ok _ ] ->
          ()
      | rs ->
          Alcotest.failf "mixed pipeline: got %s"
            (String.concat ";"
               (List.map
                  (function
                    | Ok _ -> "ok"
                    | Error f -> Client.failure_to_string f)
                  rs)));
      (* Unknown model: every slot answered, connection alive. *)
      let all_missing = Client.predict_many c ~name:"nope" [ good; good ] in
      check_true "unknown model fails every slot, typed"
        (List.for_all
           (function
             | Error (Client.Server_error { code = Protocol.Model_not_found; _ })
               ->
                 true
             | _ -> false)
           all_missing);
      (match Client.predict_typed c ~name:"m" ~states:(fst good)
               ~xs:(snd good)
       with
      | Ok _ -> ()
      | Error f ->
          Alcotest.failf "connection died after pipeline: %s"
            (Client.failure_to_string f));
      Client.shutdown c)

(* --- Consistent-hash sharding ----------------------------------------- *)

let test_shard_ring () =
  let names = Array.init 200 (fun i -> Printf.sprintf "model-%d" i) in
  let r4 = Shard.ring ~vnodes:64 4 in
  check_int "ring shard count" 4 (Shard.shards r4);
  let p1 = Array.map (Shard.place r4) names in
  (* Deterministic: an independently built identical ring places every
     name the same way — this is what lets clients route with no
     coordination. *)
  let p2 = Array.map (Shard.place (Shard.ring ~vnodes:64 4)) names in
  check_true "placement deterministic" (p1 = p2);
  check_true "placement in range"
    (Array.for_all (fun s -> s >= 0 && s < 4) p1);
  let counts = Array.make 4 0 in
  Array.iter (fun s -> counts.(s) <- counts.(s) + 1) p1;
  check_true "every shard owns part of the namespace"
    (Array.for_all (fun c -> c > 0) counts);
  check_true "no shard dominates"
    (Array.for_all (fun c -> c < 150) counts);
  (* Growing 4 -> 5 shards moves roughly 1/5 of the names, never most
     of them (mod-N hashing would move ~4/5). *)
  let p5 = Array.map (Shard.place (Shard.ring ~vnodes:64 5)) names in
  let moved = ref 0 in
  Array.iteri (fun i s -> if s <> p5.(i) then incr moved) p1;
  check_true "minimal movement on reshard"
    (!moved > 0 && !moved < Array.length names / 2);
  (match Shard.ring 0 with
  | _ -> Alcotest.fail "ring accepted 0 shards"
  | exception Invalid_argument _ -> ());
  match Shard.ring ~vnodes:0 2 with
  | _ -> Alcotest.fail "ring accepted 0 vnodes"
  | exception Invalid_argument _ -> ()

(* N in-process shards: one registry + serve_fd thread per socketpair —
   the generalized loopback-smoke pattern the shard router rides in
   tests. *)
let with_inproc_shards n f =
  let regs = Array.init n (fun _ -> Registry.create ()) in
  let pairs =
    Array.init n (fun _ -> Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0)
  in
  let servers =
    Array.init n (fun i ->
        Thread.create
          (fun () -> Server.serve_fd ~registry:regs.(i) (fst pairs.(i)))
          ())
  in
  let router = Shard.router ~shards:n (fun i -> Client.of_fd (snd pairs.(i))) in
  Fun.protect
    ~finally:(fun () ->
      Shard.close_router router;
      (* The router dials lazily: a shard no test request landed on was
         never connected, so [close_router] alone would leave its
         serve_fd thread blocked on a live peer fd forever. *)
      Array.iter
        (fun (_, cl) -> try Unix.close cl with Unix.Unix_error _ -> ())
        pairs;
      Array.iter Thread.join servers)
    (fun () -> f router regs)

let test_shard_routing_inproc () =
  let n_shards = 3 in
  let n_models = 8 in
  let models = Array.init n_models (fun _ -> synth_model ~dim:5 ~k:3 ~a:8 ()) in
  with_inproc_shards n_shards (fun router regs ->
      Array.iteri
        (fun j m ->
          let name = Printf.sprintf "model-%d" j in
          (match
             Client.load_inline (Shard.client_for router ~name) ~name
               ~image:(Snapshot.encode m)
           with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "load %s: %s" name e);
          (* The model must live exactly on its hash owner. *)
          let owner = Shard.route router ~name in
          Array.iteri
            (fun i reg ->
              let here = Registry.find reg ~name <> None in
              check_true "model on its hash owner only" (here = (i = owner)))
            regs;
          let xs = Mat.init 6 m.Model.input_dim (fun _ _ -> g ()) in
          let states = Array.init 6 (fun s -> s mod m.Model.n_states) in
          let em, es = Engine.predict_batch m ~states ~xs in
          match
            Client.predict_typed (Shard.client_for router ~name) ~name ~states
              ~xs
          with
          | Ok (rm, rs) ->
              check_true "routed predict bit-identical"
                (bits_eq em rm && bits_eq es rs)
          | Error f ->
              Alcotest.failf "routed predict %s: %s" name
                (Client.failure_to_string f))
        models;
      (* The namespace actually spread over several shards. *)
      let used =
        Array.init n_models (fun j ->
            Shard.route router ~name:(Printf.sprintf "model-%d" j))
      in
      check_true "several shards in use"
        (Array.exists (fun s -> s <> used.(0)) used))

let test_shard_reload_stable () =
  (* Placement is generation-independent: a hot reload swaps the model
     behind a name without moving it to another shard, and routed
     predicts flip to the new model bit-identically. *)
  let m1 = synth_model ~dim:5 ~k:3 ~a:8 () in
  let m2 = synth_model ~dim:5 ~k:3 ~a:8 () in
  with_inproc_shards 2 (fun router regs ->
      let name = "hot-model" in
      (match
         Client.load_inline (Shard.client_for router ~name) ~name
           ~image:(Snapshot.encode m1)
       with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "load: %s" e);
      let owner = Shard.route router ~name in
      let xs = Mat.init 5 m1.Model.input_dim (fun _ _ -> g ()) in
      let states = Array.init 5 (fun s -> s mod m1.Model.n_states) in
      let check_serving tag m =
        let em, es = Engine.predict_batch m ~states ~xs in
        match
          Client.predict_typed (Shard.client_for router ~name) ~name ~states ~xs
        with
        | Ok (rm, rs) -> check_true tag (bits_eq em rm && bits_eq es rs)
        | Error f -> Alcotest.failf "%s: %s" tag (Client.failure_to_string f)
      in
      check_serving "serving m1 before reload" m1;
      (match
         Client.reload_inline (Shard.client_for router ~name) ~name
           ~image:(Snapshot.encode m2)
       with
      | Ok (generation, _, _, _) ->
          check_int "reload bumped the slot generation" 2 generation
      | Error f -> Alcotest.failf "reload: %s" (Client.failure_to_string f));
      check_int "reload did not move the model" owner
        (Shard.route router ~name);
      Array.iteri
        (fun i reg ->
          check_true "model still on its owner only"
            ((Registry.find reg ~name <> None) = (i = owner)))
        regs;
      check_serving "serving m2 after reload" m2)

(* In-process shards whose dial opens a fresh socketpair and serve_fd
   thread per connection, so the router can really redial.  [kill i]
   hangs up the server end of shard [i]'s live connection; [shed i]
   makes shard [i]'s next dial a connection the server sheds (a typed
   Overloaded reply, then hangup — what admission control sends). *)
let with_redialing_shards n f =
  let regs = Array.init n (fun _ -> Registry.create ()) in
  let dials = Array.make n 0 in
  let live = Array.make n None in
  let shed_next = Array.make n false in
  let threads = ref [] in
  let dial i =
    let srv_fd, cl_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    dials.(i) <- dials.(i) + 1;
    let serve =
      if shed_next.(i) then begin
        shed_next.(i) <- false;
        fun () ->
          (try
             Protocol.write_reply srv_fd
               (Protocol.Overloaded { queue_depth = 1; retry_after_ms = 1 })
           with Unix.Unix_error _ -> ());
          Unix.close srv_fd
      end
      else begin
        live.(i) <- Some srv_fd;
        fun () -> Server.serve_fd ~registry:regs.(i) srv_fd
      end
    in
    threads := Thread.create serve () :: !threads;
    Client.of_fd cl_fd
  in
  let router = Shard.router ~shards:n dial in
  let kill i =
    Option.iter (fun fd -> Unix.shutdown fd Unix.SHUTDOWN_ALL) live.(i);
    live.(i) <- None
  in
  let shed i =
    shed_next.(i) <- true;
    Shard.close_router router
  in
  Fun.protect
    ~finally:(fun () ->
      Shard.close_router router;
      List.iter Thread.join !threads)
    (fun () -> f router ~dials ~kill ~shed)

let test_shard_redial () =
  (* After a lost stream or a shed, the first routed call fails with a
     retryable failure and the next one goes through a fresh dial and
     answers bit-identically — for every kind of routed request. *)
  let m = synth_model ~dim:5 ~k:3 ~a:8 () in
  let image = Snapshot.encode m in
  let xs = Mat.init 4 m.Model.input_dim (fun _ _ -> g ()) in
  let states = Array.init 4 (fun s -> s mod m.Model.n_states) in
  let em, es = Engine.predict_batch m ~states ~xs in
  let typed r = Result.map_error Client.failure_to_string r in
  let answered r =
    Result.bind (typed r) (fun (rm, rs) ->
        if bits_eq em rm && bits_eq es rs then Ok ()
        else Error "reply not bit-identical")
  in
  let ops =
    [
      ( "load_inline",
        fun c ~name -> Result.map ignore (Client.load_inline c ~name ~image) );
      ( "predict_typed",
        fun c ~name -> answered (Client.predict_typed c ~name ~states ~xs) );
      ( "predict_many",
        fun c ~name ->
          List.fold_left
            (fun acc r -> Result.bind acc (fun () -> answered r))
            (Ok ())
            (Client.predict_many c ~name [ (states, xs); (states, xs) ]) );
      ( "reload_inline",
        fun c ~name ->
          Result.map ignore (typed (Client.reload_inline c ~name ~image)) );
    ]
  in
  with_redialing_shards 2 (fun router ~dials ~kill ~shed ->
      let name = "redial-model" in
      let owner = Shard.route router ~name in
      List.iter
        (fun (loss, inflict) ->
          List.iter
            (fun (op_name, op) ->
              let tag = Printf.sprintf "%s after %s" op_name loss in
              let run () = op (Shard.client_for router ~name) ~name in
              (match run () with
              | Ok () -> ()
              | Error e -> Alcotest.failf "%s: before the loss: %s" tag e);
              inflict owner;
              (match run () with
              | Error e
                when String.starts_with ~prefix:"connection lost" e
                     || String.starts_with ~prefix:"overloaded" e ->
                  ()
              | Ok () -> Alcotest.failf "%s: the lost connection answered" tag
              | Error e ->
                  Alcotest.failf "%s: not a retryable failure: %s" tag e);
              let before = dials.(owner) in
              (match run () with
              | Ok () -> ()
              | Error e -> Alcotest.failf "%s: after the redial: %s" tag e);
              check_int (tag ^ ": one fresh dial") (before + 1) dials.(owner))
            ops)
        [ ("a server hangup", kill); ("a shed", shed) ])

let suite =
  [ ( "serve.codec",
      [ case "primitive round-trips (incl. NaN payloads)" test_codec_roundtrip;
        case "truncation and hostile lengths rejected" test_codec_rejects;
        case "fnv64 reference vectors" test_codec_fnv64 ] );
    ( "serve.snapshot",
      [ case "round-trip bit-identity" test_snapshot_roundtrip;
        case "special-float payloads round-trip" test_snapshot_special_floats;
        case "every truncation rejected" test_snapshot_truncation;
        case "every sampled bit flip rejected" test_snapshot_bit_flips;
        case "version/reserved/magic/trailing rejected" test_snapshot_versioning;
        case "atomic save + load, missing file typed" test_snapshot_file_io;
        case "injected decode fault" test_snapshot_injected_fault ] );
    ( "serve.model",
      [ case "validate rejects inconsistencies" test_model_validate_rejects;
        case "equal is bitwise" test_model_equal_is_bitwise;
        case "invalid_arg validation" test_model_invalid_args ] );
    ( "serve.registry",
      [ case "put/get/find/remove/names" test_registry_basics;
        case "lazy load + LRU demotion" test_registry_lazy_and_lru;
        case "path-less slots dropped on eviction" test_registry_put_only_eviction;
        case "generation swap + rollback on bad image" test_registry_reload_generation;
        case "parallel get/put/reload: no torn reads" test_registry_concurrent ] );
    ( "serve.engine",
      [ case "batch = scalar bitwise across shapes" test_engine_matches_scalar;
        case "batch of one = Model.predict" test_engine_batch_of_one;
        case "1/2/4 domains bit-identical" test_engine_domain_invariance;
        case "invalid_arg validation" test_engine_invalid_args;
        case "deadline: typed fault, else bit-identical" test_engine_deadline ] );
    ( "serve.protocol",
      [ case "request/reply round-trips" test_protocol_roundtrip;
        case "v2 messages round-trip" test_protocol_roundtrip_v2;
        case "frozen wire bytes (additive versioning)" test_protocol_wire_compat;
        case "zero-copy framed writes byte-identical" test_protocol_framed_writer;
        case "malformed bodies rejected" test_protocol_rejects ] );
    ( "serve.batcher",
      [ case "concurrent submits bit-identical" test_batcher_bit_identity;
        case "two models merge separately" test_batcher_two_models;
        case "window=0 degenerates to per-request" test_batcher_window_zero;
        case "full batch flushes early" test_batcher_early_flush;
        case "deadlines anchored at enqueue" test_batcher_deadline_anchor;
        case "bad request fails alone" test_batcher_validation_isolation;
        case "invalid policy rejected" test_batcher_invalid_policy;
        case "serve_fd connections coalesce" test_batcher_cross_connection ] );
    ( "serve.shard",
      [ case "ring: deterministic, spread, minimal movement" test_shard_ring;
        case "in-process multi-shard routing" test_shard_routing_inproc;
        case "reload keeps placement stable" test_shard_reload_stable;
        case "router redials after every loss" test_shard_redial ] );
    ( "serve.server",
      [ case "socketpair loopback serving" test_loopback_serving;
        case "typed errors, connection survives" test_loopback_errors;
        case "pre-extension clients keep working" test_loopback_wire_compat;
        case "deadline replies, connection survives" test_loopback_deadline;
        case "hot reload over the wire" test_loopback_reload;
        case "pipelined predict_many" test_predict_many;
        case "typed Connection_lost" test_client_connection_lost;
        case "timed-out client stays lost" test_client_stale_reply;
        case "overload sheds with typed reply" test_server_shed_overload;
        case "in-flight request survives stop" test_server_graceful_drain;
        case "drain cutoff bounds stop" test_server_drain_cutoff;
        case "with_failover across replicas" test_with_failover;
        case "supervisor restarts a dead replica" test_supervisor_failover ] );
    ( "serve.stats",
      [ case "to_json bytes pinned" test_stats_json_golden ] );
    ( "serve.fault",
      [ case "Bad_snapshot taxonomy integration" test_bad_snapshot_fault ] ) ]
