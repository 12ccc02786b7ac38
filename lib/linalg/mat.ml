module Pool = Cbmf_parallel.Pool
module Tune = Cbmf_parallel.Tune
module Arena = Cbmf_parallel.Arena

type t = { rows : int; cols : int; data : float array }

let create rows cols = { rows; cols; data = Array.make (rows * cols) 0.0 }

let init rows cols f =
  let data = Array.make (rows * cols) 0.0 in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      data.((i * cols) + j) <- f i j
    done
  done;
  { rows; cols; data }

let make rows cols c = { rows; cols; data = Array.make (rows * cols) c }

let identity n = init n n (fun i j -> if i = j then 1.0 else 0.0)

let diag v =
  let n = Array.length v in
  init n n (fun i j -> if i = j then v.(i) else 0.0)

let scalar n c = init n n (fun i j -> if i = j then c else 0.0)

let of_arrays rows_arr =
  let rows = Array.length rows_arr in
  assert (rows > 0);
  let cols = Array.length rows_arr.(0) in
  Array.iter (fun r -> assert (Array.length r = cols)) rows_arr;
  init rows cols (fun i j -> rows_arr.(i).(j))

let of_rows rows_list = of_arrays (Array.of_list rows_list)

let copy a = { a with data = Array.copy a.data }

let unsafe_of_flat ~rows ~cols data =
  assert (Array.length data = rows * cols);
  { rows; cols; data }

let dim a = (a.rows, a.cols)

let get a i j =
  assert (i >= 0 && i < a.rows && j >= 0 && j < a.cols);
  a.data.((i * a.cols) + j)

let set a i j x =
  assert (i >= 0 && i < a.rows && j >= 0 && j < a.cols);
  a.data.((i * a.cols) + j) <- x

let update a i j f = set a i j (f (get a i j))

let row a i =
  assert (i >= 0 && i < a.rows);
  Array.sub a.data (i * a.cols) a.cols

let col a j =
  assert (j >= 0 && j < a.cols);
  Array.init a.rows (fun i -> a.data.((i * a.cols) + j))

let set_row a i v =
  assert (Array.length v = a.cols);
  Array.blit v 0 a.data (i * a.cols) a.cols

let set_col a j v =
  assert (Array.length v = a.rows);
  for i = 0 to a.rows - 1 do
    a.data.((i * a.cols) + j) <- v.(i)
  done

let diagonal a =
  let n = Stdlib.min a.rows a.cols in
  Array.init n (fun i -> a.data.((i * a.cols) + i))

let submatrix a ~row0 ~col0 ~rows ~cols =
  assert (row0 >= 0 && col0 >= 0);
  assert (row0 + rows <= a.rows && col0 + cols <= a.cols);
  init rows cols (fun i j -> a.data.(((row0 + i) * a.cols) + (col0 + j)))

let submatrix_into a ~row0 ~col0 ~dst =
  assert (row0 >= 0 && col0 >= 0);
  assert (row0 + dst.rows <= a.rows && col0 + dst.cols <= a.cols);
  for i = 0 to dst.rows - 1 do
    Array.blit a.data (((row0 + i) * a.cols) + col0) dst.data (i * dst.cols)
      dst.cols
  done

let select_cols a idx =
  Array.iter (fun j -> assert (j >= 0 && j < a.cols)) idx;
  init a.rows (Array.length idx) (fun i j -> a.data.((i * a.cols) + idx.(j)))

let transpose a = init a.cols a.rows (fun i j -> a.data.((j * a.cols) + i))

let add a b =
  assert (a.rows = b.rows && a.cols = b.cols);
  { a with data = Array.init (Array.length a.data) (fun i -> a.data.(i) +. b.data.(i)) }

let sub a b =
  assert (a.rows = b.rows && a.cols = b.cols);
  { a with data = Array.init (Array.length a.data) (fun i -> a.data.(i) -. b.data.(i)) }

let scale c a = { a with data = Array.map (fun x -> c *. x) a.data }

let add_inplace a b =
  assert (a.rows = b.rows && a.cols = b.cols);
  for i = 0 to Array.length a.data - 1 do
    Array.unsafe_set a.data i
      (Array.unsafe_get a.data i +. Array.unsafe_get b.data i)
  done

let scale_inplace a c =
  for i = 0 to Array.length a.data - 1 do
    Array.unsafe_set a.data i (c *. Array.unsafe_get a.data i)
  done

let add_scaled_inplace a c b =
  assert (a.rows = b.rows && a.cols = b.cols);
  for i = 0 to Array.length a.data - 1 do
    Array.unsafe_set a.data i
      (Array.unsafe_get a.data i +. (c *. Array.unsafe_get b.data i))
  done

let add_diag_inplace a c =
  let n = Stdlib.min a.rows a.cols in
  for i = 0 to n - 1 do
    a.data.((i * a.cols) + i) <- a.data.((i * a.cols) + i) +. c
  done

(* --- GEMM kernels --------------------------------------------------
   Cache-blocked / register-blocked triple loops.  The naive variants
   are kept (suffix [_naive]) as oracles for the kernel tests; they
   must stay numerically equivalent (same sums, possibly different
   rounding).

   Panel parallelism: each blocked kernel is factored into a core that
   computes an output row panel (or column panel for the T·N shapes);
   the sequential path runs the core once over the full range, the
   parallel path fans panels out across [Pool.default ()].  Because
   every output element's accumulation order, unroll grouping and
   zero-skip expression are shared between the two paths, results are
   bit-identical at any domain count.  The parallel path is taken only
   when the pool has >1 domain, the call is not already inside a pool
   task, and the estimated work clears [Tune.gemm_fanout] — so a 1-core
   run (or a nested call) never pays for packing or gate traffic.

   Pack-once buffers: the parallel [matmul] packs [b] into
   tile-contiguous panels once per call (every row panel re-sweeps all
   of [b], so the pack cost O(p·n) amortizes over m rows and turns the
   tile sweep into pure streaming); the parallel [matmul_tn] packs each
   task's column slab of [b] into a per-slot arena buffer (stride-n row
   segments become stride-w).  Packing relocates values without
   touching them, so it cannot affect bits. *)

let matmul_naive a b =
  assert (a.cols = b.rows);
  let m = a.rows and n = b.cols and p = a.cols in
  let c = Array.make (m * n) 0.0 in
  let ad = a.data and bd = b.data in
  for i = 0 to m - 1 do
    let arow = i * p in
    let crow = i * n in
    for k = 0 to p - 1 do
      let aik = Array.unsafe_get ad (arow + k) in
      if aik <> 0.0 then begin
        let brow = k * n in
        for j = 0 to n - 1 do
          Array.unsafe_set c (crow + j)
            (Array.unsafe_get c (crow + j)
            +. (aik *. Array.unsafe_get bd (brow + j)))
        done
      end
    done
  done;
  { rows = m; cols = n; data = c }

let matmul_nt_naive a b =
  assert (a.cols = b.cols);
  let m = a.rows and n = b.rows and p = a.cols in
  let c = Array.make (m * n) 0.0 in
  let ad = a.data and bd = b.data in
  for i = 0 to m - 1 do
    let arow = i * p in
    for j = 0 to n - 1 do
      let brow = j * p in
      let acc = ref 0.0 in
      for k = 0 to p - 1 do
        acc :=
          !acc
          +. (Array.unsafe_get ad (arow + k) *. Array.unsafe_get bd (brow + k))
      done;
      Array.unsafe_set c ((i * n) + j) !acc
    done
  done;
  { rows = m; cols = n; data = c }

(* Tile sizes: a [tile_k]×[tile_j] panel of [b] (8·64·256 = 128 KB)
   stays L2-resident while a full sweep of [a]'s rows streams over
   it; within a panel the k loop is unrolled 4× so each accumulator
   row element is loaded/stored once per four multiply-adds. *)
let tile_k = 64

let tile_j = 256

(* Per-slot scratch for the parallel kernels (column-slab packs, the
   weighted-row stage).  Ids are globally fresh, so no other subsystem
   sharing a slot can collide with them. *)
let scratch = Arena.create ()

let id_tn_slab = Arena.fresh_id ()

let id_w_row = Arena.fresh_id ()

(* Fan-out guard.  The cheap flop pre-check sits below the smallest
   possible calibrated threshold (32 × the 500 ns wakeup floor), so
   small products never even look the default pool up. *)
let par_pool ~flops =
  if flops < 16_000.0 || Pool.in_parallel () then None
  else
    let pool = Pool.default () in
    let size = Pool.size pool in
    if size > 1 && Tune.gemm_fanout ~size ~flops then Some pool else None

(* Row panel [ilo, ihi) of c += a·b, reading [b] in place.  The
   sequential [matmul] is exactly this over [0, m). *)
let matmul_rows ad bd c ~n ~p ~ilo ~ihi =
  let k0 = ref 0 in
  while !k0 < p do
    let k1 = Stdlib.min p (!k0 + tile_k) in
    let j0 = ref 0 in
    while !j0 < n do
      let j1 = Stdlib.min n (!j0 + tile_j) in
      let jlo = !j0 and jhi = j1 - 1 in
      for i = ilo to ihi - 1 do
        let arow = i * p in
        let crow = i * n in
        let k = ref !k0 in
        while !k + 3 < k1 do
          let kk = !k in
          let a0 = Array.unsafe_get ad (arow + kk)
          and a1 = Array.unsafe_get ad (arow + kk + 1)
          and a2 = Array.unsafe_get ad (arow + kk + 2)
          and a3 = Array.unsafe_get ad (arow + kk + 3) in
          if a0 <> 0.0 || a1 <> 0.0 || a2 <> 0.0 || a3 <> 0.0 then begin
            let b0 = kk * n
            and b1 = (kk + 1) * n
            and b2 = (kk + 2) * n
            and b3 = (kk + 3) * n in
            for j = jlo to jhi do
              Array.unsafe_set c (crow + j)
                (Array.unsafe_get c (crow + j)
                +. (a0 *. Array.unsafe_get bd (b0 + j))
                +. (a1 *. Array.unsafe_get bd (b1 + j))
                +. (a2 *. Array.unsafe_get bd (b2 + j))
                +. (a3 *. Array.unsafe_get bd (b3 + j)))
            done
          end;
          k := kk + 4
        done;
        while !k < k1 do
          let kk = !k in
          let aik = Array.unsafe_get ad (arow + kk) in
          if aik <> 0.0 then begin
            let brow = kk * n in
            for j = jlo to jhi do
              Array.unsafe_set c (crow + j)
                (Array.unsafe_get c (crow + j)
                +. (aik *. Array.unsafe_get bd (brow + j)))
            done
          end;
          k := kk + 1
        done
      done;
      j0 := j1
    done;
    k0 := k1
  done

(* Pack [b] (p×n) into tile-major layout: for each (k-tile, j-tile)
   the tile's rows are stored contiguously at [offsets.(kt·njt + jt)],
   each of width (j1 - j0).  Pure relocation — no arithmetic. *)
let pack_b bd ~n ~p =
  let njt = (n + tile_j - 1) / tile_j in
  let nkt = (p + tile_k - 1) / tile_k in
  let packed = Array.make (p * n) 0.0 in
  let offsets = Array.make (nkt * njt) 0 in
  let pos = ref 0 in
  for kt = 0 to nkt - 1 do
    let k0 = kt * tile_k in
    let k1 = Stdlib.min p (k0 + tile_k) in
    for jt = 0 to njt - 1 do
      let j0 = jt * tile_j in
      let j1 = Stdlib.min n (j0 + tile_j) in
      let w = j1 - j0 in
      offsets.((kt * njt) + jt) <- !pos;
      for kk = k0 to k1 - 1 do
        Array.blit bd ((kk * n) + j0) packed (!pos + ((kk - k0) * w)) w
      done;
      pos := !pos + ((k1 - k0) * w)
    done
  done;
  (packed, offsets, njt)

(* [matmul_rows] against the packed layout: same loop structure, same
   unrolling, same zero-skip, same per-element accumulation order —
   only the addresses of [b]'s values differ. *)
let matmul_rows_packed ad packed offsets njt c ~n ~p ~ilo ~ihi =
  let k0 = ref 0 in
  let kt = ref 0 in
  while !k0 < p do
    let k1 = Stdlib.min p (!k0 + tile_k) in
    let j0 = ref 0 in
    let jt = ref 0 in
    while !j0 < n do
      let j1 = Stdlib.min n (!j0 + tile_j) in
      let jlo = !j0 in
      let w = j1 - jlo in
      let base = offsets.((!kt * njt) + !jt) in
      let kbase = !k0 in
      for i = ilo to ihi - 1 do
        let arow = i * p in
        let crow = (i * n) + jlo in
        let k = ref kbase in
        while !k + 3 < k1 do
          let kk = !k in
          let a0 = Array.unsafe_get ad (arow + kk)
          and a1 = Array.unsafe_get ad (arow + kk + 1)
          and a2 = Array.unsafe_get ad (arow + kk + 2)
          and a3 = Array.unsafe_get ad (arow + kk + 3) in
          if a0 <> 0.0 || a1 <> 0.0 || a2 <> 0.0 || a3 <> 0.0 then begin
            let b0 = base + ((kk - kbase) * w) in
            let b1 = b0 + w and b2 = b0 + (2 * w) and b3 = b0 + (3 * w) in
            for j = 0 to w - 1 do
              Array.unsafe_set c (crow + j)
                (Array.unsafe_get c (crow + j)
                +. (a0 *. Array.unsafe_get packed (b0 + j))
                +. (a1 *. Array.unsafe_get packed (b1 + j))
                +. (a2 *. Array.unsafe_get packed (b2 + j))
                +. (a3 *. Array.unsafe_get packed (b3 + j)))
            done
          end;
          k := kk + 4
        done;
        while !k < k1 do
          let kk = !k in
          let aik = Array.unsafe_get ad (arow + kk) in
          if aik <> 0.0 then begin
            let brow = base + ((kk - kbase) * w) in
            for j = 0 to w - 1 do
              Array.unsafe_set c (crow + j)
                (Array.unsafe_get c (crow + j)
                +. (aik *. Array.unsafe_get packed (brow + j)))
            done
          end;
          k := kk + 1
        done
      done;
      j0 := j1;
      incr jt
    done;
    k0 := k1;
    incr kt
  done

(* Fan row panels of [0, m) across [pool], chunk = one panel so the
   cursor balances stragglers.  [panel_cost_ns] prices one index. *)
let fan_rows pool ~m ~row_cost_ns body =
  let panel =
    Tune.chunk ~cost_hint_ns:row_cost_ns ~size:(Pool.size pool) ~n:m ()
  in
  let n_panels = (m + panel - 1) / panel in
  Pool.parallel_for ~chunk:1 pool ~n:n_panels (fun pi ->
      let ilo = pi * panel in
      body ~ilo ~ihi:(Stdlib.min m (ilo + panel)))

let matmul_into_data a b c =
  let m = a.rows and n = b.cols and p = a.cols in
  let ad = a.data and bd = b.data in
  let flops = float_of_int m *. float_of_int n *. float_of_int p in
  match par_pool ~flops with
  | Some pool when m >= 2 ->
      let packed, offsets, njt = pack_b bd ~n ~p in
      fan_rows pool ~m ~row_cost_ns:(float_of_int (n * p))
        (fun ~ilo ~ihi ->
          matmul_rows_packed ad packed offsets njt c ~n ~p ~ilo ~ihi)
  | _ -> matmul_rows ad bd c ~n ~p ~ilo:0 ~ihi:m

let matmul a b =
  assert (a.cols = b.rows);
  let c = Array.make (a.rows * b.cols) 0.0 in
  matmul_into_data a b c;
  { rows = a.rows; cols = b.cols; data = c }

let matmul_into a b ~dst =
  assert (a.cols = b.rows && dst.rows = a.rows && dst.cols = b.cols);
  Array.fill dst.data 0 (Array.length dst.data) 0.0;
  matmul_into_data a b dst.data

(* Dot-product kernel with 2×2 register blocking: each loaded element
   of [a] (resp. [b]) feeds two accumulators, halving the loads per
   multiply-add relative to the naive row-dot.  Parallel fan-out is
   over row *pairs* (plus the odd tail row as its own item), so the
   pairing alignment — hence the accumulator structure per element —
   is identical at any domain count. *)
let nt_dot ad bd ~p arow brow =
  let acc = ref 0.0 in
  for k = 0 to p - 1 do
    acc :=
      !acc +. (Array.unsafe_get ad (arow + k) *. Array.unsafe_get bd (brow + k))
  done;
  !acc

let nt_pair ad bd c ~n ~p i0 =
  let ar0 = i0 * p and ar1 = (i0 + 1) * p in
  let cr0 = i0 * n and cr1 = (i0 + 1) * n in
  let j = ref 0 in
  while !j + 1 < n do
    let jj = !j in
    let br0 = jj * p and br1 = (jj + 1) * p in
    let s00 = ref 0.0 and s01 = ref 0.0 and s10 = ref 0.0 and s11 = ref 0.0 in
    for k = 0 to p - 1 do
      let a0 = Array.unsafe_get ad (ar0 + k)
      and a1 = Array.unsafe_get ad (ar1 + k)
      and b0 = Array.unsafe_get bd (br0 + k)
      and b1 = Array.unsafe_get bd (br1 + k) in
      s00 := !s00 +. (a0 *. b0);
      s01 := !s01 +. (a0 *. b1);
      s10 := !s10 +. (a1 *. b0);
      s11 := !s11 +. (a1 *. b1)
    done;
    Array.unsafe_set c (cr0 + jj) !s00;
    Array.unsafe_set c (cr0 + jj + 1) !s01;
    Array.unsafe_set c (cr1 + jj) !s10;
    Array.unsafe_set c (cr1 + jj + 1) !s11;
    j := jj + 2
  done;
  if !j < n then begin
    let br = !j * p in
    Array.unsafe_set c (cr0 + !j) (nt_dot ad bd ~p ar0 br);
    Array.unsafe_set c (cr1 + !j) (nt_dot ad bd ~p ar1 br)
  end

let nt_row ad bd c ~n ~p i =
  let ar = i * p and cr = i * n in
  for j = 0 to n - 1 do
    Array.unsafe_set c (cr + j) (nt_dot ad bd ~p ar (j * p))
  done

let matmul_nt_into_data a b c =
  let m = a.rows and n = b.rows and p = a.cols in
  let ad = a.data and bd = b.data in
  let n_pairs = m / 2 in
  let items = n_pairs + (m land 1) in
  let body idx =
    if idx < n_pairs then nt_pair ad bd c ~n ~p (2 * idx)
    else nt_row ad bd c ~n ~p (m - 1)
  in
  let flops = float_of_int m *. float_of_int n *. float_of_int p in
  match par_pool ~flops with
  | Some pool when items >= 2 ->
      let chunk =
        Tune.chunk
          ~cost_hint_ns:(2.0 *. float_of_int (n * p))
          ~size:(Pool.size pool) ~n:items ()
      in
      Pool.parallel_for ~chunk pool ~n:items body
  | _ ->
      for idx = 0 to items - 1 do
        body idx
      done

let matmul_nt a b =
  assert (a.cols = b.cols);
  let c = Array.make (a.rows * b.rows) 0.0 in
  matmul_nt_into_data a b c;
  { rows = a.rows; cols = b.rows; data = c }

let matmul_nt_into a b ~dst =
  assert (a.cols = b.cols && dst.rows = a.rows && dst.cols = b.rows);
  matmul_nt_into_data a b dst.data

(* Column slab [jlo, jlo+w) of c = aᵀ·b.  [bsl] holds that slab of [b]
   packed contiguously (p rows of width [w]); the sequential caller
   passes [b]'s own data with [w = n] and no pack.  axpy kernel, k
   (shared rows) unrolled 2× so each accumulator row element is
   touched once per two multiply-adds. *)
let tn_slab ad bsl c ~m ~n ~p ~jlo ~w =
  let k = ref 0 in
  while !k + 1 < p do
    let kk = !k in
    let ar0 = kk * m and ar1 = (kk + 1) * m in
    let br0 = kk * w and br1 = (kk + 1) * w in
    for i = 0 to m - 1 do
      let a0 = Array.unsafe_get ad (ar0 + i)
      and a1 = Array.unsafe_get ad (ar1 + i) in
      if a0 <> 0.0 || a1 <> 0.0 then begin
        let crow = (i * n) + jlo in
        for j = 0 to w - 1 do
          Array.unsafe_set c (crow + j)
            (Array.unsafe_get c (crow + j)
            +. (a0 *. Array.unsafe_get bsl (br0 + j))
            +. (a1 *. Array.unsafe_get bsl (br1 + j)))
        done
      end
    done;
    k := kk + 2
  done;
  if !k < p then begin
    let arow = !k * m and brow = !k * w in
    for i = 0 to m - 1 do
      let aki = Array.unsafe_get ad (arow + i) in
      if aki <> 0.0 then begin
        let crow = (i * n) + jlo in
        for j = 0 to w - 1 do
          Array.unsafe_set c (crow + j)
            (Array.unsafe_get c (crow + j)
            +. (aki *. Array.unsafe_get bsl (brow + j)))
        done
      end
    done
  end

let matmul_tn a b =
  assert (a.rows = b.rows);
  let m = a.cols and n = b.cols and p = a.rows in
  let c = Array.make (m * n) 0.0 in
  let ad = a.data and bd = b.data in
  let flops = float_of_int m *. float_of_int n *. float_of_int p in
  (match par_pool ~flops with
  | Some pool when n >= 2 ->
      (* Column panels; each task packs its slab of [b] into per-slot
         scratch so the stride-n row segments become stride-w. *)
      let size = Pool.size pool in
      let panel =
        Stdlib.min n
          (Tune.chunk ~cost_hint_ns:(float_of_int (m * p)) ~size ~n ())
      in
      let n_panels = (n + panel - 1) / panel in
      Pool.parallel_for ~chunk:1 pool ~n:n_panels (fun pi ->
          let jlo = pi * panel in
          let w = Stdlib.min n (jlo + panel) - jlo in
          let bsl = Arena.grab scratch id_tn_slab (p * panel) in
          for k = 0 to p - 1 do
            Array.blit bd ((k * n) + jlo) bsl (k * w) w
          done;
          tn_slab ad bsl c ~m ~n ~p ~jlo ~w)
  | _ -> tn_slab ad bd c ~m ~n ~p ~jlo:0 ~w:n);
  { rows = m; cols = n; data = c }

(* Symmetric rank-k updates: only the upper triangle is accumulated,
   then mirrored — half the multiply-adds of the general product.
   Parallel fan-out is over row panels of the triangle (each index
   owns rows [ilo, ihi) of the upper part and, for [syrk_nt], the
   matching column of the lower part); the mirror stays sequential. *)
let syrk_tn_rows ad c ~n ~p ~ilo ~ihi =
  for k = 0 to p - 1 do
    let arow = k * n in
    for i = ilo to ihi - 1 do
      let aki = Array.unsafe_get ad (arow + i) in
      if aki <> 0.0 then begin
        let crow = i * n in
        for j = i to n - 1 do
          Array.unsafe_set c (crow + j)
            (Array.unsafe_get c (crow + j)
            +. (aki *. Array.unsafe_get ad (arow + j)))
        done
      end
    done
  done

let syrk_tn a =
  let p = a.rows and n = a.cols in
  let c = Array.make (n * n) 0.0 in
  let ad = a.data in
  let flops = 0.5 *. float_of_int (n * n) *. float_of_int p in
  (match par_pool ~flops with
  | Some pool when n >= 2 ->
      (* Row cost shrinks with i (triangle); the average n·p/2 with
         one-panel chunks lets the cursor balance the skew. *)
      fan_rows pool ~m:n
        ~row_cost_ns:(0.5 *. float_of_int (n * p))
        (fun ~ilo ~ihi -> syrk_tn_rows ad c ~n ~p ~ilo ~ihi)
  | _ -> syrk_tn_rows ad c ~n ~p ~ilo:0 ~ihi:n);
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      Array.unsafe_set c ((j * n) + i) (Array.unsafe_get c ((i * n) + j))
    done
  done;
  { rows = n; cols = n; data = c }

let syrk_nt_rows ad c ~m ~p ~ilo ~ihi =
  for i = ilo to ihi - 1 do
    let arow = i * p in
    for j = i to m - 1 do
      let brow = j * p in
      let acc = ref 0.0 in
      for k = 0 to p - 1 do
        acc :=
          !acc
          +. (Array.unsafe_get ad (arow + k) *. Array.unsafe_get ad (brow + k))
      done;
      Array.unsafe_set c ((i * m) + j) !acc;
      Array.unsafe_set c ((j * m) + i) !acc
    done
  done

let syrk_nt a =
  let m = a.rows and p = a.cols in
  let c = Array.make (m * m) 0.0 in
  let ad = a.data in
  let flops = 0.5 *. float_of_int (m * m) *. float_of_int p in
  (match par_pool ~flops with
  | Some pool when m >= 2 ->
      fan_rows pool ~m
        ~row_cost_ns:(0.5 *. float_of_int (m * p))
        (fun ~ilo ~ihi -> syrk_nt_rows ad c ~m ~p ~ilo ~ihi)
  | _ -> syrk_nt_rows ad c ~m ~p ~ilo:0 ~ihi:m);
  { rows = m; cols = m; data = c }

(* Fused weighted product a·diag(w)·bᵀ.  The weighted row of [a] is
   staged once per i into a scratch panel, so no sqrt/scaled copy of
   either operand is ever materialized (this is what lets the G
   assembly drop its scaled design copies).  When [a] and [b] are
   physically the same matrix the result is symmetric and only the
   upper triangle is computed.  The stage buffer comes from the
   per-slot arena — one allocation per slot per size, not per call —
   and in the parallel path each row panel stages into its own slot's
   buffer. *)
let ntw_rows ad bd wv t c ~n ~p ~symmetric ~ilo ~ihi =
  for i = ilo to ihi - 1 do
    let arow = i * p in
    for k = 0 to p - 1 do
      Array.unsafe_set t k
        (Array.unsafe_get ad (arow + k) *. Array.unsafe_get wv k)
    done;
    let crow = i * n in
    let jlo = if symmetric then i else 0 in
    for j = jlo to n - 1 do
      let brow = j * p in
      let acc = ref 0.0 in
      for k = 0 to p - 1 do
        acc := !acc +. (Array.unsafe_get t k *. Array.unsafe_get bd (brow + k))
      done;
      Array.unsafe_set c (crow + j) !acc
    done
  done

let matmul_nt_weighted_into_data a w b c =
  let m = a.rows and n = b.rows and p = a.cols in
  let ad = a.data and bd = b.data in
  let symmetric = ad == bd && m = n in
  let flops =
    (if symmetric then 0.5 else 1.0)
    *. float_of_int m *. float_of_int n *. float_of_int p
  in
  (match par_pool ~flops with
  | Some pool when m >= 2 ->
      let row_cost =
        (if symmetric then 0.5 else 1.0) *. float_of_int (n * p)
      in
      fan_rows pool ~m ~row_cost_ns:row_cost (fun ~ilo ~ihi ->
          let t = Arena.grab scratch id_w_row p in
          ntw_rows ad bd w t c ~n ~p ~symmetric ~ilo ~ihi)
  | _ ->
      (* Arena scratch is safe exactly when this domain's slot is
         exclusively ours — inside a pool task.  A plain caller domain
         may host concurrent systhreads sharing slot 0, so it stages
         into a fresh local buffer instead. *)
      let t =
        if Pool.in_parallel () then Arena.grab scratch id_w_row p
        else Array.make p 0.0
      in
      ntw_rows ad bd w t c ~n ~p ~symmetric ~ilo:0 ~ihi:m);
  if symmetric then
    for i = 0 to m - 1 do
      for j = i + 1 to n - 1 do
        Array.unsafe_set c ((j * n) + i) (Array.unsafe_get c ((i * n) + j))
      done
    done

let matmul_nt_weighted a w b =
  assert (a.cols = b.cols && Array.length w = a.cols);
  let c = Array.make (a.rows * b.rows) 0.0 in
  matmul_nt_weighted_into_data a w b c;
  { rows = a.rows; cols = b.rows; data = c }

let matmul_nt_weighted_into a w b ~dst =
  assert (a.cols = b.cols && Array.length w = a.cols);
  assert (dst.rows = a.rows && dst.cols = b.rows);
  matmul_nt_weighted_into_data a w b dst.data

let mat_vec a x =
  assert (a.cols = Array.length x);
  let y = Array.make a.rows 0.0 in
  let ad = a.data in
  for i = 0 to a.rows - 1 do
    let arow = i * a.cols in
    let acc = ref 0.0 in
    for j = 0 to a.cols - 1 do
      acc := !acc +. (Array.unsafe_get ad (arow + j) *. Array.unsafe_get x j)
    done;
    y.(i) <- !acc
  done;
  y

let mat_tvec_into a x y =
  assert (a.rows = Array.length x && a.cols = Array.length y);
  Array.fill y 0 a.cols 0.0;
  let ad = a.data in
  for i = 0 to a.rows - 1 do
    let arow = i * a.cols in
    let xi = Array.unsafe_get x i in
    if xi <> 0.0 then
      for j = 0 to a.cols - 1 do
        Array.unsafe_set y j
          (Array.unsafe_get y j +. (xi *. Array.unsafe_get ad (arow + j)))
      done
  done

let mat_tvec a x =
  let y = Array.make a.cols 0.0 in
  mat_tvec_into a x y;
  y

let gram a = syrk_tn a

let outer x y =
  init (Array.length x) (Array.length y) (fun i j -> x.(i) *. y.(j))

let add_outer_inplace a c x y =
  assert (a.rows = Array.length x && a.cols = Array.length y);
  for i = 0 to a.rows - 1 do
    let cxi = c *. x.(i) in
    if cxi <> 0.0 then begin
      let arow = i * a.cols in
      for j = 0 to a.cols - 1 do
        Array.unsafe_set a.data (arow + j)
          (Array.unsafe_get a.data (arow + j) +. (cxi *. Array.unsafe_get y j))
      done
    end
  done

let quadratic_form a x =
  assert (a.rows = a.cols && a.rows = Array.length x);
  Vec.dot x (mat_vec a x)

let trace a =
  let n = Stdlib.min a.rows a.cols in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. a.data.((i * a.cols) + i)
  done;
  !acc

let frobenius a = Vec.norm2 a.data

let norm_inf a =
  let worst = ref 0.0 in
  for i = 0 to a.rows - 1 do
    let acc = ref 0.0 in
    for j = 0 to a.cols - 1 do
      acc := !acc +. abs_float a.data.((i * a.cols) + j)
    done;
    if !acc > !worst then worst := !acc
  done;
  !worst

let max_abs a = Vec.norm_inf a.data

let is_square a = a.rows = a.cols

let is_symmetric ?(tol = 1e-9) a =
  is_square a
  &&
  let ok = ref true in
  for i = 0 to a.rows - 1 do
    for j = i + 1 to a.cols - 1 do
      if abs_float (get a i j -. get a j i) > tol then ok := false
    done
  done;
  !ok

let symmetrize_inplace a =
  assert (is_square a);
  for i = 0 to a.rows - 1 do
    for j = i + 1 to a.cols - 1 do
      let m = 0.5 *. (get a i j +. get a j i) in
      set a i j m;
      set a j i m
    done
  done

let approx_equal ?(tol = 1e-9) a b =
  a.rows = b.rows && a.cols = b.cols
  && Vec.approx_equal ~tol a.data b.data

let map f a = { a with data = Array.map f a.data }

let mapi f a = init a.rows a.cols (fun i j -> f i j (get a i j))

let pp ppf a =
  Format.fprintf ppf "@[<v 0>";
  for i = 0 to a.rows - 1 do
    if i > 0 then Format.fprintf ppf "@,";
    Format.fprintf ppf "[";
    for j = 0 to a.cols - 1 do
      if j > 0 then Format.fprintf ppf " ";
      Format.fprintf ppf "%10.4g" (get a i j)
    done;
    Format.fprintf ppf "]"
  done;
  Format.fprintf ppf "@]"

let to_string a = Format.asprintf "%a" pp a
