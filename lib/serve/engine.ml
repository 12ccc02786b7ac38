open Cbmf_linalg
open Cbmf_basis
open Cbmf_parallel
open Cbmf_robust

(* The site named by the typed fault raised when a batch overruns its
   wall-clock budget — the server maps it to a [Deadline_exceeded]
   reply.  The check sits at chunk granularity, so an expired budget
   abandons the batch within one chunk's work instead of running to
   completion and replying late. *)
let deadline_site = "serve.deadline"

let deadline_fault step =
  Fault.Error
    (Fault.Early_stop
       { site = deadline_site; step; reason = "deadline exceeded" })

(* Fixed fan-out granularity.  MUST NOT depend on the pool size — chunk
   boundaries being a pure function of the batch makes the output
   bit-identical at any CBMF_DOMAINS.  (Chunk boundaries decide which
   points share a state bucket, so a different constant could move
   low-order variance bits.) *)
let chunk_size = 64

let predict_batch ?pool ?deadline (m : Model.t) ~states ~(xs : Mat.t) =
  let n = xs.Mat.rows in
  let check_deadline step =
    match deadline with
    | None -> ()
    | Some d -> if Unix.gettimeofday () >= d then raise (deadline_fault step)
  in
  check_deadline 0;
  if Array.length states <> n then
    invalid_arg
      (Printf.sprintf "Engine.predict_batch: %d states for %d points"
         (Array.length states) n);
  if xs.Mat.cols <> m.Model.input_dim then
    invalid_arg
      (Printf.sprintf "Engine.predict_batch: input dim %d, expected %d"
         xs.Mat.cols m.Model.input_dim);
  Array.iter
    (fun s ->
      if s < 0 || s >= m.Model.n_states then
        invalid_arg
          (Printf.sprintf "Engine.predict_batch: state %d of %d" s
             m.Model.n_states))
    states;
  let a = Array.length m.Model.terms in
  let k = m.Model.n_states in
  let d = m.Model.input_dim in
  let means = Array.make n 0.0 in
  let sds = Array.make n 0.0 in
  let noise = m.Model.sigma0 *. m.Model.sigma0 in
  (* Chunk scratch is allocated here, never taken from a per-slot
     [Arena]: a slot belongs to a domain, and the serving tier's worker
     systhreads all share the server domain's slot 0 (a pool of one, or
     a sibling's pool job in flight, runs the chunks on the caller). *)
  let process_chunk c =
    check_deadline c;
    let lo = c * chunk_size in
    let hi = min n (lo + chunk_size) in
    let cn = hi - lo in
    (* Group chunk points by state so each group's variances come from
       one blocked matmul against that state's covariance block. *)
    let buckets = Array.make k [] in
    for i = cn - 1 downto 0 do
      let s = states.(lo + i) in
      buckets.(s) <- i :: buckets.(s)
    done;
    let mu = m.Model.mu in
    let x = Array.make d 0.0 in
    for s = 0 to k - 1 do
      match buckets.(s) with
      | [] -> ()
      | idxs ->
          let idxs = Array.of_list idxs in
          let g = Array.length idxs in
          (* Standardized active rows for the group — the same
             expression Model.features evaluates, so the bits agree.
             The input row is staged into [x] instead of copied fresh
             per point. *)
          let us = Mat.create g a in
          let ud = us.Mat.data in
          for gi = 0 to g - 1 do
            Array.blit xs.Mat.data ((lo + idxs.(gi)) * d) x 0 d;
            let row = gi * a in
            for j = 0 to a - 1 do
              ud.(row + j) <-
                (Term.eval m.Model.terms.(j) x -. Mat.get m.Model.col_means s j)
                /. m.Model.col_scales.(j)
            done
          done;
          (* cov.(s) is symmetric, so W = Us·covᵀ has row i equal to
             cov·u_i, each entry a sequential dot — bit-identical to
             Model.predict's mat_vec. *)
          let w = Mat.matmul_nt us m.Model.cov.(s) in
          (* Hoist the strided μ column; same values as Mat.get mu j s. *)
          let mu_s = Array.make a 0.0 in
          for j = 0 to a - 1 do
            mu_s.(j) <- mu.Mat.data.((j * k) + s)
          done;
          let wd = w.Mat.data in
          for gi = 0 to g - 1 do
            let row = gi * a in
            let mean_std = ref 0.0 in
            for j = 0 to a - 1 do
              mean_std := !mean_std +. (ud.(row + j) *. mu_s.(j))
            done;
            let var = ref 0.0 in
            for j = 0 to a - 1 do
              var := !var +. (ud.(row + j) *. wd.(row + j))
            done;
            let i = lo + idxs.(gi) in
            means.(i) <- m.Model.y_means.(s) +. (m.Model.y_scale *. !mean_std);
            sds.(i) <-
              m.Model.y_scale *. sqrt (Float.max !var 0.0 +. noise)
          done
    done
  in
  let nchunks = (n + chunk_size - 1) / chunk_size in
  (if nchunks = 1 then process_chunk 0
   else if nchunks > 1 then
     let pool = match pool with Some p -> p | None -> Pool.default () in
     Pool.parallel_for ~chunk:1 pool ~n:nchunks process_chunk);
  (means, sds)

let predict m ~state (x : Vec.t) =
  let xs = Mat.unsafe_of_flat ~rows:1 ~cols:(Array.length x) (Array.copy x) in
  let means, sds = predict_batch m ~states:[| state |] ~xs in
  (means.(0), sds.(0))
