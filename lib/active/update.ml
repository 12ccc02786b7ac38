open Cbmf_linalg
open Cbmf_model
open Cbmf_core

type t = {
  active : int array;
  a : int;
  k : int;
  ak : int;
  m : int;
  sigma0 : float;
  inv_s2 : float;
  log_det_a : float;
  p_chol : Chol.Updatable.t;
  c : Vec.t;
  mutable yty : float;
  mutable nk : int;
  mutable appended : int;
  mutable sol : (Vec.t * Mat.t * float) option;
      (* (μ_w, μ as M×K, nlml) under the current factorization;
         invalidated by every append *)
  v_buf : Vec.t;
      (* aK scratch for the rank-one vector (the update destroys its
         argument) *)
}

let create (d : Dataset.t) (prior : Prior.t) ~active =
  Array.iter
    (fun j ->
      if j < 0 || j >= d.Dataset.n_basis then
        invalid_arg "Update.create: active index out of range";
      if prior.Prior.lambda.(j) <= 0.0 then
        invalid_arg "Update.create: active lambda must be > 0")
    active;
  let sys = Posterior.primal_system d prior ~active in
  let k = d.Dataset.n_states and m = d.Dataset.n_basis in
  let a = Array.length active in
  let ak = a * k in
  let sigma0 = prior.Prior.sigma0 in
  {
    active = Array.copy active;
    a;
    k;
    ak;
    m;
    sigma0;
    inv_s2 = 1.0 /. (sigma0 *. sigma0);
    log_det_a = sys.Posterior.log_det_a;
    p_chol =
      Chol.Updatable.of_chol (Chol.factorize_with_retry sys.Posterior.p_mat);
    c = sys.Posterior.rhs;
    yty = sys.Posterior.yty;
    nk = sys.Posterior.sys_nk;
    appended = 0;
    sol = None;
    v_buf = Array.make ak 0.0;
  }

let nk t = t.nk

let n_states t = t.k

let n_basis t = t.m

let appended t = t.appended

let active t = t.active

let append t ~state ~row ~y =
  if state < 0 || state >= t.k then
    invalid_arg "Update.append: state out of range";
  if Array.length row <> t.m then
    invalid_arg "Update.append: basis row length mismatch";
  (* P ← P + σ0⁻²·b̃b̃ᵀ is the classic Cholesky rank-one update with
     v = b̃/σ0, where b̃ embeds the active slice of the basis row in
     state [state]'s block — no refactorization.  The blocks of the
     states before [state] are zero and the update starts past them:
     O((aK − state·a)²). *)
  let v = t.v_buf in
  Array.fill v 0 t.ak 0.0;
  let off = state * t.a in
  Array.iteri (fun j col -> v.(off + j) <- row.(col) /. t.sigma0) t.active;
  Chol.Updatable.rank1_update t.p_chol v;
  (* c ← c + y·b̃, ‖y‖² and NK grow by the sample. *)
  if y <> 0.0 then
    Array.iteri
      (fun j col -> t.c.(off + j) <- t.c.(off + j) +. (y *. row.(col)))
      t.active;
  t.yty <- t.yty +. (y *. y);
  t.nk <- t.nk + 1;
  t.appended <- t.appended + 1;
  t.sol <- None

let append_round t ~rows ~ys =
  if Array.length rows <> t.k || Array.length ys <> t.k then
    invalid_arg "Update.append_round: one row and response per state";
  for s = 0 to t.k - 1 do
    append t ~state:s ~row:rows.(s) ~y:ys.(s)
  done

(* Solve μ_w = σ0⁻²·P⁻¹c against the updated factorization and fold
   the NLML terms: everything here is O((aK)²) given the factor. *)
let refresh t =
  match t.sol with
  | Some s -> s
  | None ->
      let mu_w = Chol.Updatable.solve_vec t.p_chol t.c in
      for i = 0 to t.ak - 1 do
        mu_w.(i) <- t.inv_s2 *. mu_w.(i)
      done;
      let mu = Mat.create t.m t.k in
      Array.iteri
        (fun j col ->
          for s = 0 to t.k - 1 do
            Mat.set mu col s mu_w.((s * t.a) + j)
          done)
        t.active;
      let y_ginv_y = t.inv_s2 *. (t.yty -. Vec.dot t.c mu_w) in
      let log_det_g =
        (2.0 *. float_of_int t.nk *. log t.sigma0)
        +. t.log_det_a +. Chol.Updatable.log_det t.p_chol
      in
      let nlml = y_ginv_y +. log_det_g in
      let s = (mu_w, mu, nlml) in
      t.sol <- Some s;
      s

let mean t =
  let _, mu, _ = refresh t in
  mu

let nlml t =
  let _, _, nlml = refresh t in
  nlml

let coefficients t =
  let _, mu, _ = refresh t in
  Mat.transpose mu

let variance t ~state (b : Vec.t) =
  if state < 0 || state >= t.k then
    invalid_arg "Update.variance: state out of range";
  if Array.length b <> t.m then
    invalid_arg "Update.variance: basis row length mismatch";
  let u = Array.make t.ak 0.0 in
  Array.iteri (fun j col -> u.((state * t.a) + j) <- b.(col)) t.active;
  Float.max (Chol.Updatable.quad_inv t.p_chol u) 0.0

let predictive t ~state (b : Vec.t) =
  let _, mu, _ = refresh t in
  let mean = ref 0.0 in
  Array.iter
    (fun col -> mean := !mean +. (b.(col) *. Mat.get mu col state))
    t.active;
  (!mean, variance t ~state b)
