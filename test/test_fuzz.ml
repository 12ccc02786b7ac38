(* Seeded mutation fuzzing of the wire and snapshot decoders.

   Valid encodings of requests, replies and one snapshot image are
   mutated by truncation, bit flips, byte overwrites and length lies
   (0x7fffffff written over a u32), and every mutant is fed to its
   decoder.  Each must either decode or raise a typed error — a
   [Codec.Corrupt] or a [Cbmf_robust.Fault.Error] — within an
   allocation bound proportional to its length and a wall-time bound
   far above a decode's microseconds: a hostile count must never turn
   into a huge allocation or a long loop.  A mutant that does decode
   must re-encode to exactly its own bytes (the encodings are
   canonical).  The seed and the input count are fixed, so every run
   replays the same inputs. *)

open Cbmf_linalg
open Cbmf_serve
open Helpers
module Seeded = Cbmf_testkit.Seeded
module Rng = Cbmf_prob.Rng

let mutants_per_input = 2000

(* A small structurally valid serving model, from its own stream. *)
let snapshot_model () =
  let rng = Rng.create 4242 in
  let dim = 4 and k = 3 and a = 6 in
  let terms =
    Array.init a (fun j ->
        match j mod 4 with
        | 0 -> Cbmf_basis.Term.Constant
        | 1 -> Cbmf_basis.Term.Linear (j mod dim)
        | 2 -> Cbmf_basis.Term.Square (j mod dim)
        | _ -> Cbmf_basis.Term.Cross (j mod (dim - 1), (j mod (dim - 1)) + 1))
  in
  {
    Model.input_dim = dim;
    n_states = k;
    terms;
    col_means = Seeded.random_mat rng k a;
    col_scales = Array.init a (fun _ -> 0.5 +. Float.abs (Rng.gaussian rng));
    y_means = Seeded.random_vec rng k;
    y_scale = 1.5;
    mu = Seeded.random_mat rng a k;
    lambda = Array.init a (fun _ -> Float.abs (Rng.gaussian rng));
    r = Seeded.random_spd rng k;
    sigma0 = 0.05;
    cov = Array.init k (fun _ -> Seeded.random_spd rng a);
  }

let requests image =
  let xs = Mat.init 3 4 (fun i j -> float_of_int ((7 * i) - j) /. 3.0) in
  [ Protocol.Load { name = "lna"; source = Protocol.Path "/models/lna.snap" };
    Protocol.Load { name = "mix"; source = Protocol.Inline image };
    Protocol.Predict { name = "lna"; states = [| 0; 2; 1 |]; xs };
    Protocol.Predict_deadline
      { name = "lna"; states = [| 1; 1; 0 |]; xs; deadline_ms = 250 };
    Protocol.Reload { name = "lna"; source = Protocol.Path "/models/v2.snap" };
    Protocol.Ping ]

let replies =
  [ Protocol.Predicted
      { means = [| 1.5; -2.25; Float.nan |]; sds = [| 0.5; 0.125; 1.0 |] };
    Protocol.Stats_json "{\"requests\":{\"predict\":3}}";
    Protocol.Reloaded { generation = 4; n_active = 6; n_states = 3; bytes = 2048 };
    Protocol.Overloaded { queue_depth = 17; retry_after_ms = 40 };
    Protocol.Error { code = Protocol.Bad_request; message = "state 9 >= 3" } ]

let set_u32_le b i v =
  for k = 0 to 3 do
    Bytes.set b (i + k) (Char.chr ((v lsr (8 * k)) land 0xff))
  done

(* One seeded mutant of [s] (non-empty), of mutation kind 0–3. *)
let mutate rng ~kind s =
  let n = String.length s in
  match kind with
  | 0 -> String.sub s 0 (Rng.int rng n)
  | 1 ->
      let b = Bytes.of_string s in
      for _ = 0 to Rng.int rng 4 do
        let i = Rng.int rng n in
        let bit = 1 lsl Rng.int rng 8 in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor bit))
      done;
      Bytes.to_string b
  | 2 ->
      let b = Bytes.of_string s in
      for _ = 0 to Rng.int rng 4 do
        Bytes.set b (Rng.int rng n) (Char.chr (Rng.int rng 256))
      done;
      Bytes.to_string b
  | _ ->
      if n < 4 then String.sub s 0 (n - 1)
      else begin
        let b = Bytes.of_string s in
        set_u32_le b (Rng.int rng (n - 3)) 0x7fffffff;
        Bytes.to_string b
      end

(* Feed one mutant [m] to [decode]; fail on any other exception, on a
   decoded mutant that does not re-encode to its own bytes, or on an
   allocation or a time beyond the bounds.  True when [m] decoded,
   false when it raised a typed error.  [what] names the mutant in a
   failure message. *)
let check_mutant ~label ~decode ~reencode ~what m =
  (* [Gc.allocated_bytes] jumps by about a minor heap when a minor
     collection lands inside the window; starting from an empty minor
     heap keeps the count exact for a decode this small. *)
  Gc.minor ();
  let before = Gc.allocated_bytes () and t0 = Unix.gettimeofday () in
  let outcome =
    match decode m with
    | v -> Some v
    | exception Codec.Corrupt _ -> None
    | exception Cbmf_robust.Fault.Error _ -> None
    | exception e ->
        Alcotest.failf "%s: %s raised %s" label (what ()) (Printexc.to_string e)
  in
  let seconds = Unix.gettimeofday () -. t0 in
  let allocated = Gc.allocated_bytes () -. before in
  if seconds > 2.0 then
    Alcotest.failf "%s: %s took %.2f s to decode" label (what ()) seconds;
  let bound = float_of_int ((64 * String.length m) + 65_536) in
  if allocated > bound then
    Alcotest.failf "%s: %s allocated %.0f bytes for %d input bytes" label
      (what ()) allocated (String.length m);
  match outcome with
  | None -> false
  | Some v ->
      if not (String.equal (reencode v) m) then
        Alcotest.failf "%s: %s decoded but re-encodes differently" label
          (what ());
      true

(* One valid encoding with its decoder.  [checksummed] encodings must
   reject every changed byte. *)
type target = {
  label : string;
  valid : string;
  checksummed : bool;
  feed : what:(unit -> string) -> string -> bool;
}

let targets () =
  let image = Snapshot.encode (snapshot_model ()) in
  let target ?(checksummed = false) label decode reencode valid =
    {
      label;
      valid;
      checksummed;
      feed = (fun ~what m -> check_mutant ~label ~decode ~reencode ~what m);
    }
  in
  List.mapi
    (fun i req ->
      target (Printf.sprintf "request %d" i) Protocol.decode_request
        Protocol.encode_request (Protocol.encode_request req))
    (requests image)
  @ List.mapi
      (fun i rep ->
        target (Printf.sprintf "reply %d" i) Protocol.decode_reply
          Protocol.encode_reply (Protocol.encode_reply rep))
      replies
  (* Every changed byte of an image lands under the checksum or the
     header checks, so only a mutant that changed nothing may load. *)
  @ [ target ~checksummed:true "snapshot" (fun s -> Snapshot.decode s)
        Snapshot.encode image ]

(* Feed [mutant i] for i < [count] to [t]; fail as [check_mutant]
   does, and on an altered mutant of a checksummed encoding that
   decodes.  Returns how many altered mutants decoded and how many
   raised a typed error. *)
let feed_all t ~count ~describe mutant =
  let decoded = ref 0 and typed = ref 0 in
  for i = 0 to count - 1 do
    let m = mutant i in
    if t.feed ~what:(fun () -> describe i m) m then begin
      if not (String.equal m t.valid) then begin
        if t.checksummed then
          Alcotest.failf "%s: altered %s loaded" t.label (describe i m);
        incr decoded
      end
    end
    else incr typed
  done;
  (!decoded, !typed)

let test_decoders_typed () =
  check_true "the snapshot fixture decodes"
    (Model.equal
       (Snapshot.decode (Snapshot.encode (snapshot_model ())))
       (snapshot_model ()));
  let rng = Rng.create 8191 in
  List.iter
    (fun t ->
      (* The four kinds cycle, so each gets a quarter of the mutants. *)
      let _, typed =
        feed_all t ~count:mutants_per_input
          ~describe:(fun i m ->
            Printf.sprintf "mutant %d (kind %d, %d bytes)" i (i mod 4)
              (String.length m))
          (fun i -> mutate rng ~kind:(i mod 4) t.valid)
      in
      check_true (t.label ^ ": mutations reach the error paths") (typed > 0))
    (targets ())

(* Exhaustive counterparts of two mutation kinds: every strict prefix,
   and a length lie at every offset. *)

let test_every_truncation_typed () =
  List.iter
    (fun t ->
      let n = String.length t.valid in
      let decoded, _ =
        feed_all t ~count:n
          ~describe:(fun len _ -> Printf.sprintf "%d-byte prefix of %d" len n)
          (fun len -> String.sub t.valid 0 len)
      in
      check_int (t.label ^ ": no strict prefix decodes") 0 decoded)
    (targets ())

let test_every_length_lie_typed () =
  List.iter
    (fun t ->
      let n = String.length t.valid in
      let _, typed =
        feed_all t ~count:(n - 3)
          ~describe:(fun i _ -> Printf.sprintf "0x7fffffff at byte %d of %d" i n)
          (fun i ->
            let b = Bytes.of_string t.valid in
            set_u32_le b i 0x7fffffff;
            Bytes.to_string b)
      in
      if n >= 4 then check_true (t.label ^ ": some lie is caught") (typed > 0))
    (targets ())

let suite =
  [ ( "serve.fuzz",
      [ case "seeded decoder mutations: decode or typed error"
          test_decoders_typed;
        case "every truncated prefix: typed error" test_every_truncation_typed;
        case "a length lie at every offset: decode or typed error"
          test_every_length_lie_typed ] ) ]
