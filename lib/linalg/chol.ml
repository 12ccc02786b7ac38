type t = {
  n : int;
  l : float array; (* row-major lower triangle, full n×n *)
  jitter : float; (* diagonal boost that was applied before factorizing *)
}

exception Not_positive_definite of int

let factorize ?(jitter = 0.0) (a : Mat.t) =
  assert (Mat.is_square a);
  let n = a.Mat.rows in
  let l = Array.make (n * n) 0.0 in
  (* Copy the lower triangle (with jitter on the diagonal). *)
  for i = 0 to n - 1 do
    for j = 0 to i do
      l.((i * n) + j) <-
        (a.Mat.data.((i * n) + j) +. if i = j then jitter else 0.0)
    done
  done;
  (* Left-looking Cholesky on the packed copy. *)
  for j = 0 to n - 1 do
    let jj = (j * n) + j in
    let s = ref l.(jj) in
    for k = 0 to j - 1 do
      let ljk = l.((j * n) + k) in
      s := !s -. (ljk *. ljk)
    done;
    if !s <= 0.0 || Float.is_nan !s then raise (Not_positive_definite j);
    let d = sqrt !s in
    l.(jj) <- d;
    for i = j + 1 to n - 1 do
      let s = ref l.((i * n) + j) in
      for k = 0 to j - 1 do
        s := !s -. (l.((i * n) + k) *. l.((j * n) + k))
      done;
      l.((i * n) + j) <- !s /. d
    done
  done;
  { n; l; jitter }

(* Escalating jitter is capped relative to the matrix's mean absolute
   diagonal: past that point the "repair" would swamp the matrix itself,
   so the failure is reported as a typed fault instead of silently
   returning a factorization of mostly-jitter. *)
let jitter_cap_rel = 1e-2

let factorize_with_retry ?(max_tries = 8) a =
  let n = a.Mat.rows in
  let base = 1e-12 *. Float.max 1.0 (Mat.max_abs a) in
  let mean_diag =
    let s = ref 0.0 in
    for i = 0 to n - 1 do
      s := !s +. abs_float a.Mat.data.((i * n) + i)
    done;
    !s /. float_of_int (Stdlib.max n 1)
  in
  let cap = Float.max base (jitter_cap_rel *. mean_diag) in
  let site = "chol.factorize" in
  let rec go tries jitter =
    let attempt () =
      if Cbmf_robust.Inject.fire ~site then raise (Not_positive_definite 0)
      else factorize ~jitter a
    in
    match attempt () with
    | f ->
        (* A nonzero jitter means at least one attempt failed and was
           recovered; surface that to the ambient recorder. *)
        if jitter > 0.0 then
          Cbmf_robust.Diag.note
            (Cbmf_robust.Fault.Not_pd { site; dim = n; tries });
        f
    | exception Not_positive_definite _ when tries < max_tries ->
        let jitter =
          if jitter = 0.0 then base else Float.min (jitter *. 100.0) cap
        in
        go (tries + 1) jitter
    | exception Not_positive_definite _ ->
        raise
          (Cbmf_robust.Fault.Error
             (Cbmf_robust.Fault.Not_pd { site; dim = n; tries }))
  in
  go 0 0.0

let jitter f = f.jitter

let dim f = f.n

let lower f =
  Mat.init f.n f.n (fun i j -> if j <= i then f.l.((i * f.n) + j) else 0.0)

let forward_sub f (b : Vec.t) =
  let n = f.n in
  assert (Array.length b = n);
  let z = Array.copy b in
  for i = 0 to n - 1 do
    let s = ref z.(i) in
    for k = 0 to i - 1 do
      s := !s -. (f.l.((i * n) + k) *. z.(k))
    done;
    z.(i) <- !s /. f.l.((i * n) + i)
  done;
  z

let backward_sub_t f (z : Vec.t) =
  (* Solve lᵀ x = z. *)
  let n = f.n in
  let x = Array.copy z in
  for i = n - 1 downto 0 do
    let s = ref x.(i) in
    for k = i + 1 to n - 1 do
      s := !s -. (f.l.((k * n) + i) *. x.(k))
    done;
    x.(i) <- !s /. f.l.((i * n) + i)
  done;
  x

let solve_vec f b = backward_sub_t f (forward_sub f b)

let solve_lower = forward_sub

(* Multi-RHS triangular solves (TRSM).  Columns are processed in
   panels so the substitution streams whole rows of the panel —
   contiguous in the row-major layout — instead of strided single
   columns.  The forward solve skips every row above the first nonzero
   of the panel: for an RHS whose column [c] starts at row [r] (e.g. a
   block-diagonal stacked design, or an identity) rows [< r] of the
   solution are exactly zero and never touched. *)
let panel_cols = 32

let solve_lower_mat_inplace f (x : Mat.t) =
  assert (x.Mat.rows = f.n);
  let n = f.n and nc = x.Mat.cols in
  let xd = x.Mat.data and l = f.l in
  let c0 = ref 0 in
  while !c0 < nc do
    let c1 = Stdlib.min nc (!c0 + panel_cols) in
    let lo = !c0 and hi = c1 - 1 in
    (* First row with a nonzero entry in this panel. *)
    let start = ref 0 in
    (let continue_ = ref true in
     while !continue_ && !start < n do
       let row = !start * nc in
       let nonzero = ref false in
       for c = lo to hi do
         if Array.unsafe_get xd (row + c) <> 0.0 then nonzero := true
       done;
       if !nonzero then continue_ := false else incr start
     done);
    for r = !start to n - 1 do
      let lrow = r * n in
      let xrow = r * nc in
      for k = !start to r - 1 do
        let lrk = Array.unsafe_get l (lrow + k) in
        if lrk <> 0.0 then begin
          let krow = k * nc in
          for c = lo to hi do
            Array.unsafe_set xd (xrow + c)
              (Array.unsafe_get xd (xrow + c)
              -. (lrk *. Array.unsafe_get xd (krow + c)))
          done
        end
      done;
      let d = Array.unsafe_get l (lrow + r) in
      for c = lo to hi do
        Array.unsafe_set xd (xrow + c) (Array.unsafe_get xd (xrow + c) /. d)
      done
    done;
    c0 := c1
  done

let solve_lower_mat f b =
  let x = Mat.copy b in
  solve_lower_mat_inplace f x;
  x

(* Backward panel solve lᵀ X = Z, in place. *)
let solve_upper_t_mat_inplace f (x : Mat.t) =
  assert (x.Mat.rows = f.n);
  let n = f.n and nc = x.Mat.cols in
  let xd = x.Mat.data and l = f.l in
  let c0 = ref 0 in
  while !c0 < nc do
    let c1 = Stdlib.min nc (!c0 + panel_cols) in
    let lo = !c0 and hi = c1 - 1 in
    for r = n - 1 downto 0 do
      let xrow = r * nc in
      for k = r + 1 to n - 1 do
        let lkr = Array.unsafe_get l ((k * n) + r) in
        if lkr <> 0.0 then begin
          let krow = k * nc in
          for c = lo to hi do
            Array.unsafe_set xd (xrow + c)
              (Array.unsafe_get xd (xrow + c)
              -. (lkr *. Array.unsafe_get xd (krow + c)))
          done
        end
      done;
      let d = Array.unsafe_get l ((r * n) + r) in
      for c = lo to hi do
        Array.unsafe_set xd (xrow + c) (Array.unsafe_get xd (xrow + c) /. d)
      done
    done;
    c0 := c1
  done

let solve_mat f (b : Mat.t) =
  assert (b.Mat.rows = f.n);
  let x = Mat.copy b in
  solve_lower_mat_inplace f x;
  solve_upper_t_mat_inplace f x;
  x

let inverse f =
  let inv = solve_mat f (Mat.identity f.n) in
  Mat.symmetrize_inplace inv;
  inv

let log_det f =
  let acc = ref 0.0 in
  for i = 0 to f.n - 1 do
    acc := !acc +. log f.l.((i * f.n) + i)
  done;
  2.0 *. !acc

let det f = exp (log_det f)

let quad_inv f b =
  let z = forward_sub f b in
  Vec.norm2_sq z

let trace_inverse f =
  (* Tr(a⁻¹) = ‖l⁻¹‖_F²: solve l z = e_i for each i and accumulate. *)
  let n = f.n in
  let acc = ref 0.0 in
  let e = Array.make n 0.0 in
  for i = 0 to n - 1 do
    Array.fill e 0 n 0.0;
    e.(i) <- 1.0;
    (* Only components ≥ i of l⁻¹ e_i are nonzero; exploit that. *)
    let z = Array.make n 0.0 in
    for r = i to n - 1 do
      let s = ref e.(r) in
      for k = i to r - 1 do
        s := !s -. (f.l.((r * n) + k) *. z.(k))
      done;
      z.(r) <- !s /. f.l.((r * n) + r);
      acc := !acc +. (z.(r) *. z.(r))
    done
  done;
  !acc

let lower_inverse_t f =
  (* Row u of the result is l⁻¹·e_u, i.e. the result is (l⁻¹)ᵀ.  The
     solve for e_u only touches components ≥ u, so each row write is
     contiguous and the total cost is Σ_u (n−u)²/2 = n³/6. *)
  let n = f.n in
  let out = Mat.create n n in
  let od = out.Mat.data in
  for u = 0 to n - 1 do
    let row = u * n in
    od.(row + u) <- 1.0 /. f.l.((u * n) + u);
    for r = u + 1 to n - 1 do
      let lrow = r * n in
      let s = ref 0.0 in
      for w = u to r - 1 do
        s := !s -. (f.l.(lrow + w) *. od.(row + w))
      done;
      od.(row + r) <- !s /. f.l.(lrow + r)
    done
  done;
  out

let mahalanobis_sq f x mu = quad_inv f (Vec.sub x mu)

let sample_transform f z =
  let n = f.n in
  assert (Array.length z = n);
  Array.init n (fun i ->
      let s = ref 0.0 in
      for k = 0 to i do
        s := !s +. (f.l.((i * n) + k) *. z.(k))
      done;
      !s)

let rank1_update f (v : Vec.t) =
  let n = f.n in
  assert (Array.length v = n);
  for j = 0 to n - 1 do
    let ljj = f.l.((j * n) + j) in
    let r = sqrt ((ljj *. ljj) +. (v.(j) *. v.(j))) in
    let c = r /. ljj in
    let s = v.(j) /. ljj in
    f.l.((j * n) + j) <- r;
    for i = j + 1 to n - 1 do
      let lij = (f.l.((i * n) + j) +. (s *. v.(i))) /. c in
      f.l.((i * n) + j) <- lij;
      v.(i) <- (c *. v.(i)) -. (s *. lij)
    done
  done

let copy f = { f with l = Array.copy f.l }

let of_scaled_identity n c =
  assert (n > 0 && c > 0.0);
  let l = Array.make (n * n) 0.0 in
  let d = sqrt c in
  for i = 0 to n - 1 do
    l.((i * n) + i) <- d
  done;
  { n; l; jitter = 0.0 }

(* --- Updatable factor ------------------------------------------------
   The same lower factor, stored column-major (L[i,j] at j·n + i) so the
   rank-one update's inner loop — which walks one column below the
   pivot — reads and writes contiguous memory instead of one cache line
   per element.

   Bit-identity with {!rank1_update}: every update below performs the
   same float operations in the same order on the same values; the
   layout only changes where they live.  The one skipped piece of work
   is the zero prefix of v: a rotation with v_j = 0 has r = √(l_jj²) =
   l_jj exactly (IEEE square roots of squares are exact away from
   overflow and underflow), so c = 1, s = 0, and it rewrites every
   entry of the column and of v with its own value — an identity. *)
type chol = t

module Updatable = struct
  type t = { n : int; l : float array (* column-major, full n×n *) }

  let scaled_identity_into l n c =
    assert (n > 0 && c > 0.0 && Array.length l = n * n);
    Array.fill l 0 (n * n) 0.0;
    let d = sqrt c in
    for i = 0 to n - 1 do
      l.((i * n) + i) <- d
    done;
    { n; l }

  let of_chol (f : chol) =
    let n = f.n in
    let l = Array.make (n * n) 0.0 in
    for j = 0 to n - 1 do
      for i = j to n - 1 do
        l.((j * n) + i) <- f.l.((i * n) + j)
      done
    done;
    { n; l }

  let lower t =
    Mat.init t.n t.n (fun i j -> if j <= i then t.l.((j * t.n) + i) else 0.0)

  (* Index of the first nonzero entry of [v], [n] when all are zero. *)
  let first_nonzero v n =
    let p = ref 0 in
    while !p < n && Array.unsafe_get v !p = 0.0 do
      incr p
    done;
    !p

  let rank1_update t (v : Vec.t) =
    let n = t.n and l = t.l in
    assert (Array.length v = n);
    for j = first_nonzero v n to n - 1 do
      let col = j * n in
      let ljj = Array.unsafe_get l (col + j) in
      let vj = Array.unsafe_get v j in
      let r = sqrt ((ljj *. ljj) +. (vj *. vj)) in
      let c = r /. ljj in
      let s = vj /. ljj in
      Array.unsafe_set l (col + j) r;
      for i = j + 1 to n - 1 do
        let lij =
          (Array.unsafe_get l (col + i) +. (s *. Array.unsafe_get v i)) /. c
        in
        Array.unsafe_set l (col + i) lij;
        Array.unsafe_set v i ((c *. Array.unsafe_get v i) -. (s *. lij))
      done
    done

  (* Forward substitution in column (axpy) order: entry i still sees
     b_i − l_i0·z_0 − … − l_i,i−1·z_{i−1}, then ÷ l_ii — the row dot
     product's exact operation sequence. *)
  let forward_inplace t x ~from =
    let n = t.n and l = t.l in
    for k = from to n - 1 do
      let col = k * n in
      let xk = Array.unsafe_get x k /. Array.unsafe_get l (col + k) in
      Array.unsafe_set x k xk;
      for i = k + 1 to n - 1 do
        Array.unsafe_set x i
          (Array.unsafe_get x i -. (Array.unsafe_get l (col + i) *. xk))
      done
    done

  let solve_vec t (b : Vec.t) =
    let n = t.n and l = t.l in
    assert (Array.length b = n);
    let x = Array.copy b in
    forward_inplace t x ~from:0;
    (* Lᵀx = z: row i of Lᵀ is column i of L, contiguous here. *)
    for i = n - 1 downto 0 do
      let col = i * n in
      let s = ref (Array.unsafe_get x i) in
      for k = i + 1 to n - 1 do
        s := !s -. (Array.unsafe_get l (col + k) *. Array.unsafe_get x k)
      done;
      Array.unsafe_set x i (!s /. Array.unsafe_get l (col + i))
    done;
    x

  (* bᵀa⁻¹b = ‖L⁻¹b‖².  Above b's first nonzero p the solution is
     zero, and those zeros subtract nothing from the rows below, so the
     solve and the sum of squares both start at p. *)
  let quad_inv t (b : Vec.t) =
    let n = t.n in
    assert (Array.length b = n);
    let p = first_nonzero b n in
    let z = Array.copy b in
    forward_inplace t z ~from:p;
    let acc = ref 0.0 in
    for i = p to n - 1 do
      let zi = Array.unsafe_get z i in
      acc := !acc +. (zi *. zi)
    done;
    !acc

  let log_det t =
    let acc = ref 0.0 in
    for i = 0 to t.n - 1 do
      acc := !acc +. log t.l.((i * t.n) + i)
    done;
    2.0 *. !acc
end

let is_positive_definite a =
  match factorize a with
  | _ -> true
  | exception Not_positive_definite _ -> false

let nearest_pd_inplace ?(floor = 1e-10) a =
  Mat.symmetrize_inplace a;
  let scale = Float.max 1.0 (Mat.max_abs a) in
  let rec go boost tries =
    if tries > 60 then invalid_arg "Chol.nearest_pd_inplace: cannot repair"
    else if is_positive_definite a then ()
    else begin
      Mat.add_diag_inplace a boost;
      go (boost *. 10.0) (tries + 1)
    end
  in
  go (floor *. scale) 0
