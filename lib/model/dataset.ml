open Cbmf_linalg

type t = {
  n_states : int;
  n_samples : int;
  n_basis : int;
  design : Mat.t array;
  response : Vec.t array;
  norms_cache : Vec.t option array;
  bty_cache : Vec.t option array;
}

let create ~design ~response =
  let n_states = Array.length design in
  assert (n_states > 0);
  assert (Array.length response = n_states);
  let n_samples = design.(0).Mat.rows in
  let n_basis = design.(0).Mat.cols in
  Array.iteri
    (fun k (b : Mat.t) ->
      assert (b.Mat.rows = n_samples);
      assert (b.Mat.cols = n_basis);
      assert (Array.length response.(k) = n_samples))
    design;
  {
    n_states;
    n_samples;
    n_basis;
    design;
    response;
    norms_cache = Array.make n_states None;
    bty_cache = Array.make n_states None;
  }

(* --- Per-design-matrix caches -----------------------------------------
   Column norms and Bᵀy are invariants of a design matrix, but the
   greedy front end (S-OMP selection, Algorithm 1's grid) historically
   recomputed them inside every iteration — an O(N·M·θ) term that
   dominates selection once fitting is cheap.  They are computed lazily,
   once per state, and shared by every subsequent pass over the same
   dataset.  The returned arrays are the cache itself: callers must not
   mutate them.  Writing a freshly computed array into the slot is a
   single pointer store, and the value is a pure function of the design,
   so concurrent lazy initialization from pool workers is idempotent;
   [warm_caches] lets hot paths force the fill before fanning out. *)

(* Rows ascending, columns inner: the accumulation order of
   {!Cbmf_basis.Dictionary.column_norms}, so the cached norms are
   bit-identical to it. *)
let column_norms d k =
  match d.norms_cache.(k) with
  | Some v -> v
  | None ->
      let b = d.design.(k) in
      let ssq = Array.make d.n_basis 0.0 in
      for i = 0 to b.Mat.rows - 1 do
        let off = i * d.n_basis in
        for j = 0 to d.n_basis - 1 do
          let x = b.Mat.data.(off + j) in
          ssq.(j) <- ssq.(j) +. (x *. x)
        done
      done;
      let v = Array.map (fun s -> if s > 0.0 then sqrt s else 1.0) ssq in
      d.norms_cache.(k) <- Some v;
      v

let bty d k =
  match d.bty_cache.(k) with
  | Some v -> v
  | None ->
      let v = Mat.mat_tvec d.design.(k) d.response.(k) in
      d.bty_cache.(k) <- Some v;
      v

let warm_caches d =
  for k = 0 to d.n_states - 1 do
    ignore (column_norms d k);
    ignore (bty d k)
  done

(* --- Streaming appends ----------------------------------------------
   The active-learning loop grows a dataset one acquisition round at a
   time.  Appends return a fresh dataset (values stay immutable from
   the caller's point of view) whose caches start empty: the loop
   never reads them on a grown dataset, and a reader fills them from
   scratch. *)

let append_rows d ~design ~response =
  if Array.length design <> d.n_states || Array.length response <> d.n_states
  then invalid_arg "Dataset.append_rows: need one block per state";
  let n_new = design.(0).Mat.rows in
  if n_new < 1 then invalid_arg "Dataset.append_rows: empty append";
  Array.iteri
    (fun k (b : Mat.t) ->
      if
        b.Mat.rows <> n_new
        || b.Mat.cols <> d.n_basis
        || Array.length response.(k) <> n_new
      then invalid_arg "Dataset.append_rows: block shape mismatch")
    design;
  let m = d.n_basis in
  let n = d.n_samples in
  let design' =
    Array.mapi
      (fun k (nb : Mat.t) ->
        let flat = Array.make ((n + n_new) * m) 0.0 in
        Array.blit d.design.(k).Mat.data 0 flat 0 (n * m);
        Array.blit nb.Mat.data 0 flat (n * m) (n_new * m);
        Mat.unsafe_of_flat ~rows:(n + n_new) ~cols:m flat)
      design
  in
  let response' =
    Array.mapi
      (fun k ys ->
        let y = Array.make (n + n_new) 0.0 in
        Array.blit d.response.(k) 0 y 0 n;
        Array.blit ys 0 y n n_new;
        y)
      response
  in
  create ~design:design' ~response:response'

let append_row d ~rows ~ys =
  if Array.length rows <> d.n_states || Array.length ys <> d.n_states then
    invalid_arg "Dataset.append_row: need one (row, y) per state";
  let m = d.n_basis in
  let design =
    Array.map
      (fun (r : Vec.t) ->
        if Array.length r <> m then
          invalid_arg "Dataset.append_row: row width mismatch";
        Mat.unsafe_of_flat ~rows:1 ~cols:m (Array.copy r))
      rows
  in
  let response = Array.map (fun y -> [| y |]) ys in
  append_rows d ~design ~response

let truncate_samples d ~n =
  assert (n > 0 && n <= d.n_samples);
  let design =
    Array.map
      (fun (b : Mat.t) ->
        Mat.submatrix b ~row0:0 ~col0:0 ~rows:n ~cols:b.Mat.cols)
      d.design
  in
  let response = Array.map (fun y -> Array.sub y 0 n) d.response in
  create ~design ~response

let select_rows d idx =
  assert (Array.length idx = d.n_states);
  let design =
    Array.mapi
      (fun k rows ->
        Mat.init (Array.length rows) d.n_basis (fun i j ->
            Mat.get d.design.(k) rows.(i) j))
      idx
  in
  let response =
    Array.mapi
      (fun k rows -> Array.map (fun i -> d.response.(k).(i)) rows)
      idx
  in
  create ~design ~response

let select_states d states =
  assert (Array.length states > 0);
  Array.iter (fun k -> assert (k >= 0 && k < d.n_states)) states;
  create
    ~design:(Array.map (fun k -> Mat.copy d.design.(k)) states)
    ~response:(Array.map (fun k -> Array.copy d.response.(k)) states)

let split_fold d ~n_folds ~fold =
  assert (n_folds >= 2 && fold >= 0 && fold < n_folds);
  assert (d.n_samples >= n_folds);
  let test_rows = ref [] and train_rows = ref [] in
  for i = d.n_samples - 1 downto 0 do
    if i mod n_folds = fold then test_rows := i :: !test_rows
    else train_rows := i :: !train_rows
  done;
  let test = Array.of_list !test_rows and train = Array.of_list !train_rows in
  ( select_rows d (Array.make d.n_states train),
    select_rows d (Array.make d.n_states test) )

(* --- Finiteness validation ------------------------------------------
   A single NaN/Inf anywhere in the design or response poisons every
   downstream factorization, so datasets are screened before fitting.
   The report is row-granular: one entry per offending (state, row)
   with the first bad column ([col = -1] flags the response). *)

type invalid_row = { state : int; row : int; col : int }

type report = { n_rows : int; invalid : invalid_row array }

let validate d =
  let bad = ref [] and n_bad = ref 0 in
  for s = d.n_states - 1 downto 0 do
    let b = d.design.(s) and y = d.response.(s) in
    for i = d.n_samples - 1 downto 0 do
      let col = ref (-2) in
      if not (Float.is_finite y.(i)) then col := -1;
      let base = i * d.n_basis in
      for j = d.n_basis - 1 downto 0 do
        if not (Float.is_finite b.Mat.data.(base + j)) then col := j
      done;
      if !col > -2 then begin
        bad := { state = s; row = i; col = !col } :: !bad;
        incr n_bad
      end
    done
  done;
  if !n_bad = 0 then Ok ()
  else Error { n_rows = d.n_states * d.n_samples; invalid = Array.of_list !bad }

let validate_exn d =
  match validate d with
  | Ok () -> ()
  | Error rep ->
      raise
        (Cbmf_robust.Fault.Error
           (Cbmf_robust.Fault.Non_finite
              {
                site = "dataset.validate";
                what =
                  Printf.sprintf "%d of %d rows (first: state %d row %d)"
                    (Array.length rep.invalid) rep.n_rows
                    rep.invalid.(0).state rep.invalid.(0).row;
                index = rep.invalid.(0).row;
              }))

let response_norm d =
  let acc = ref 0.0 in
  Array.iter (fun y -> acc := !acc +. Vec.norm2_sq y) d.response;
  sqrt !acc

let total_samples d = d.n_states * d.n_samples

let state_design d k = d.design.(k)

let state_response d k = d.response.(k)
