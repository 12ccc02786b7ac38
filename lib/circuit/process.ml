open Cbmf_linalg
open Cbmf_prob

type global = {
  dvth : float;
  dbeta_rel : float;
  dl_rel : float;
  dw_rel : float;
  dcox_rel : float;
  drsheet_rel : float;
  dcpar_rel : float;
  dgamma_rel : float;
}

type mismatch = {
  m_dvth : float;
  m_dbeta_rel : float;
  m_dl_rel : float;
  m_dw_rel : float;
}

type device_spec = { dev_name : string; dev_w : float; dev_l : float }

type t = {
  devices : device_spec array;
  sigma_vth_global : float;
  n_res : int;
  (* Per-device precomputed mismatch sigmas. *)
  sigma_vth_local : float array;
  sigma_beta_local : float array;
}

let n_globals = 8

let params_per_device = 4

(* Inter-die sigmas for the non-Vth globals (relative). *)
let sigma_beta_g = 0.03
let sigma_l_g = 0.02
let sigma_w_g = 0.01
let sigma_cox_g = 0.02
let sigma_rsheet_g = 0.05
let sigma_cpar_g = 0.03
let sigma_gamma_g = 0.05

(* Local geometry mismatch sigmas (relative, before area scaling they
   are given at a 1 µm² reference area). *)
let sigma_l_local_ref = 0.01
let sigma_w_local_ref = 0.005
let sigma_res_local = 0.01

let create ?(sigma_vth_global = 0.015) ?(avt = 2.5e-3 *. 1e-6)
    ?(abeta = 0.01 *. 1e-6) ?(n_resistor_vars = 0) devices =
  assert (Array.length devices > 0);
  let area d = Float.max (d.dev_w *. d.dev_l) 1e-18 in
  let sigma_vth_local = Array.map (fun d -> avt /. sqrt (area d)) devices in
  let sigma_beta_local = Array.map (fun d -> abeta /. sqrt (area d)) devices in
  {
    devices;
    sigma_vth_global;
    n_res = n_resistor_vars;
    sigma_vth_local;
    sigma_beta_local;
  }

let n_devices p = Array.length p.devices

let dim p = n_globals + (params_per_device * n_devices p) + p.n_res

let device_index p name =
  let rec go i =
    if i >= Array.length p.devices then raise Not_found
    else if String.equal p.devices.(i).dev_name name then i
    else go (i + 1)
  in
  go 0

let global_of p (x : Vec.t) =
  assert (Array.length x >= dim p);
  {
    dvth = p.sigma_vth_global *. x.(0);
    dbeta_rel = sigma_beta_g *. x.(1);
    dl_rel = sigma_l_g *. x.(2);
    dw_rel = sigma_w_g *. x.(3);
    dcox_rel = sigma_cox_g *. x.(4);
    drsheet_rel = sigma_rsheet_g *. x.(5);
    dcpar_rel = sigma_cpar_g *. x.(6);
    dgamma_rel = sigma_gamma_g *. x.(7);
  }

let mismatch_of p (x : Vec.t) d =
  assert (d >= 0 && d < n_devices p);
  assert (Array.length x >= dim p);
  let base = n_globals + (params_per_device * d) in
  let area_scale =
    (* Geometry mismatch scales like 1/sqrt(area) relative to 1 µm². *)
    1e-6 /. sqrt (Float.max (p.devices.(d).dev_w *. p.devices.(d).dev_l) 1e-18)
  in
  {
    m_dvth = p.sigma_vth_local.(d) *. x.(base);
    m_dbeta_rel = p.sigma_beta_local.(d) *. x.(base + 1);
    m_dl_rel = sigma_l_local_ref *. area_scale *. x.(base + 2);
    m_dw_rel = sigma_w_local_ref *. area_scale *. x.(base + 3);
  }

let n_resistor_vars p = p.n_res

let resistor_var p (x : Vec.t) i =
  assert (i >= 0 && i < p.n_res);
  sigma_res_local *. x.(n_globals + (params_per_device * n_devices p) + i)

let sample p r = Rng.gaussian_vector r (dim p)

let global_names =
  [| "g:dvth"; "g:dbeta"; "g:dl"; "g:dw"; "g:dcox"; "g:drsheet"; "g:dcpar";
     "g:dgamma" |]

let variable_name p i =
  assert (i >= 0 && i < dim p);
  if i < n_globals then global_names.(i)
  else begin
    let j = i - n_globals in
    let d = j / params_per_device in
    if d < n_devices p then begin
      let field =
        match j mod params_per_device with
        | 0 -> "dvth"
        | 1 -> "dbeta"
        | 2 -> "dl"
        | _ -> "dw"
      in
      Printf.sprintf "%s:%s" p.devices.(d).dev_name field
    end
    else
      Printf.sprintf "r:%d" (i - n_globals - (params_per_device * n_devices p))
  end
