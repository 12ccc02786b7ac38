open Cbmf_linalg
open Cbmf_prob
open Cbmf_robust

type per_state = { xs : Mat.t; ys : Mat.t }

type t = {
  testbench : Testbench.t;
  states : per_state array;
  n_per_state : int;
  dropped : int array;
}

(* Retry streams live in a seed space keyed off [base] by a fixed
   constant, so they can never collide with the primary per-sample
   streams (base, stream·n + i) for any sample count. *)
let retry_salt = 0x5DEECE66DC0FFEE5L

let max_retry_slots = 16 (* retry attempts per sample are capped below this *)

let generate ?(max_retries = 3) ?diag tb rng ~n_per_state =
  if n_per_state <= 0 then
    invalid_arg "Montecarlo.generate: n_per_state must be positive";
  let max_retries = Stdlib.max 0 (Stdlib.min (max_retry_slots - 2) max_retries) in
  let dim = Testbench.dim tb in
  let k = Testbench.n_states tb in
  let n = n_per_state in
  (* One draw from the caller's stream keys the whole dataset: every
     per-state / per-sample RNG below derives from (base, index), so
     generation order — and hence the domain count — cannot change the
     result, while successive [generate] calls on one rng still see
     fresh data. *)
  let base = Rng.seed_of rng in
  let retry_base = Int64.logxor base retry_salt in
  let pool = Cbmf_parallel.Pool.default () in
  let note f = match diag with Some d -> Diag.record d f | None -> Diag.note f in
  (* Row i of state s's [xs] comes from its own stream (base, s·n + i). *)
  let draw_xs ~stream =
    let xs = Mat.create n dim in
    Cbmf_parallel.Pool.parallel_for pool ~n (fun i ->
        let r = Rng.derive base ~index:((stream * n) + i) in
        for j = 0 to dim - 1 do
          Mat.set xs i j (Rng.gaussian r)
        done);
    xs
  in
  let xs_all = Array.init k (fun s -> draw_xs ~stream:s) in
  let p = Testbench.n_pois tb in
  let ys_all = Array.init k (fun _ -> Mat.create n p) in
  (* Per-sample evaluation with bounded, deterministic recovery: a
     sample whose simulation raises (or returns a non-finite PoI) is
     re-drawn from a retry sub-stream derived from the sample's global
     index — NOT from shared RNG state — so recovery is bit-identical
     at any domain count and in any execution order.  A sample that
     still fails after [max_retries] redraws is dropped (recorded
     below); [keep] is written index-owned, preserving the pool's
     determinism contract. *)
  let keep = Array.make (k * n) true in
  Cbmf_parallel.Pool.parallel_for pool ~n:(k * n) (fun idx ->
      let s = idx / n and i = idx mod n in
      Inject.with_scope ~key:idx @@ fun () ->
      let eval row =
        if Inject.fire ~site:"mc.sample" then Array.make p Float.nan
        else tb.Testbench.evaluate ~state:s row
      in
      let classify tries = function
        | Mna.Singular_circuit -> Fault.Singular { site = "mna.solve"; dim = 0 }
        | Fault.Error f -> f
        | e ->
            ignore tries;
            Fault.Worker_error
              { site = "mc.sample"; message = Printexc.to_string e }
      in
      let rec attempt t row =
        let outcome =
          match eval row with
          | pois when Array.length pois = p && Array.for_all Float.is_finite pois
            ->
              Ok pois
          | pois ->
              if Array.length pois <> p then
                Error
                  (Fault.Worker_error
                     { site = "mc.sample"; message = "wrong PoI count" })
              else
                Error (Fault.Non_finite { site = "mc.sample"; what = "poi"; index = idx })
          | exception e -> Error (classify t e)
        in
        match outcome with
        | Ok pois ->
            if t > 0 then Mat.set_row xs_all.(s) i row;
            Mat.set_row ys_all.(s) i pois
        | Error f ->
            note f;
            if t >= max_retries then begin
              note
                (Fault.Sim_failure
                   { site = "mc.sample"; state = s; sample = i; tries = t + 1 });
              keep.(idx) <- false
            end
            else begin
              let r =
                Rng.derive retry_base ~index:((idx * max_retry_slots) + t + 1)
              in
              attempt (t + 1) (Array.init dim (fun _ -> Rng.gaussian r))
            end
      in
      attempt 0 (Mat.row xs_all.(s) i));
  let dropped = Array.make k 0 in
  for idx = 0 to (k * n) - 1 do
    if not keep.(idx) then dropped.(idx / n) <- dropped.(idx / n) + 1
  done;
  let total_dropped = Array.fold_left ( + ) 0 dropped in
  if total_dropped = 0 then
    (* Fast path: the arrays are exactly the evaluated ones (and with a
       clean simulator, bit-identical to the historical stream). *)
    let states = Array.init k (fun s -> { xs = xs_all.(s); ys = ys_all.(s) }) in
    { testbench = tb; states; n_per_state; dropped }
  else begin
    (* Compact to the surviving rows.  Dataset consumers need a
       rectangular per-state layout, so every state keeps its first
       [n_keep] surviving samples where [n_keep] is the worst state's
       count — fully determined by [keep], hence domain-invariant. *)
    let kept_rows =
      Array.init k (fun s ->
          let rows = ref [] in
          for i = n - 1 downto 0 do
            if keep.((s * n) + i) then rows := i :: !rows
          done;
          Array.of_list !rows)
    in
    let n_keep = Array.fold_left (fun m r -> Stdlib.min m (Array.length r)) n kept_rows in
    if n_keep = 0 then
      raise
        (Fault.Error
           (Fault.Sim_failure
              { site = "mc.generate"; state = 0; sample = 0; tries = max_retries + 1 }));
    let states =
      Array.init k (fun s ->
          let rows = kept_rows.(s) in
          {
            xs = Mat.init n_keep dim (fun i j -> Mat.get xs_all.(s) rows.(i) j);
            ys = Mat.init n_keep p (fun i j -> Mat.get ys_all.(s) rows.(i) j);
          })
    in
    { testbench = tb; states; n_per_state = n_keep; dropped }
  end

let total_samples mc = Array.length mc.states * mc.n_per_state

let total_dropped mc = Array.fold_left ( + ) 0 mc.dropped

let poi_column mc ~state ~poi = Mat.col mc.states.(state).ys poi

let truncate mc ~n =
  assert (n > 0 && n <= mc.n_per_state);
  let cut (s : per_state) =
    {
      xs = Mat.submatrix s.xs ~row0:0 ~col0:0 ~rows:n ~cols:s.xs.Mat.cols;
      ys = Mat.submatrix s.ys ~row0:0 ~col0:0 ~rows:n ~cols:s.ys.Mat.cols;
    }
  in
  { mc with states = Array.map cut mc.states; n_per_state = n }

let simulation_hours mc =
  Testbench.simulation_cost_hours mc.testbench ~n_samples:(total_samples mc)
