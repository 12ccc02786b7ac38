open Cbmf_linalg
open Cbmf_parallel
open Cbmf_robust

(* Cross-connection dynamic batching.
   ----------------------------------

   Worker threads park predict requests here instead of calling the
   engine directly; a single drainer thread coalesces whatever is
   pending into merged [Engine.predict_batch] calls and fans the
   answers back out.  Merging is sound because the engine's per-point
   arithmetic is independent of batch composition (each point's basis
   row, covariance product and mean are sequential reductions over
   that point's own data — pinned by the "batch = scalar bitwise"
   tests), so a coalesced reply is bit-identical to the per-request
   one at any domain count.

   Flush policy: the window runs from the FIRST pending request's
   enqueue timestamp, so it only ever delays the idle→busy edge.
   Requests that arrive while a merged call is computing find that
   timestamp already old when the drainer comes back around — the next
   drain is immediate, and under sustained load the batcher is
   compute-bound, not window-bound.  Reaching [max_points] pending
   flushes early.  A window of 0 bypasses the machinery entirely:
   [submit] calls the engine inline, bit- and latency-identical to the
   unbatched server. *)

type outcome =
  | Reply of float array * float array
  | Raise of exn

(* One parked predict.  [p_deadline] is absolute (anchored where the
   server anchored it — at enqueue, not at drain), so time spent
   parked counts against the budget, never extends it. *)
type pending = {
  p_model : Model.t;
  p_states : int array;
  p_xs : Mat.t;
  p_deadline : float option;
  p_enqueued : float;
  p_cond : Condition.t;
  mutable p_done : outcome option;
}

type t = {
  lock : Mutex.t;
  wake : Condition.t;  (* drainer sleeps here while the queue is empty *)
  queue : pending Queue.t;
  mutable q_points : int;  (* points pending right now, for early flush *)
  window_us : int;
  max_points : int;
  stats : Stats.t option;
  pool : Pool.t option;
  mutable stopping : bool;
  mutable drainer : Thread.t option;
}

let deadline_fault =
  Fault.Error
    (Fault.Early_stop
       { site = Engine.deadline_site; step = 0; reason = "deadline exceeded" })

let settle t p outcome =
  Mutex.lock t.lock;
  p.p_done <- Some outcome;
  Condition.signal p.p_cond;
  Mutex.unlock t.lock

(* The engine's own pre-compute validation, replicated so one
   malformed request cannot poison a merged call.  A request failing
   this is run solo — the engine raises its authentic
   [Invalid_argument] before computing anything. *)
let valid p =
  Array.length p.p_states = p.p_xs.Mat.rows
  && p.p_xs.Mat.cols = p.p_model.Model.input_dim
  && Array.for_all
       (fun s -> s >= 0 && s < p.p_model.Model.n_states)
       p.p_states

(* One merged engine call over same-model requests, FIFO order
   preserved so request [i]'s points sit at a contiguous offset. *)
let run_merged t model ps =
  let reqs = Array.of_list ps in
  let n = Array.fold_left (fun a p -> a + p.p_xs.Mat.rows) 0 reqs in
  let d = model.Model.input_dim in
  let states = Array.make n 0 in
  let data = Array.make (n * d) 0.0 in
  let off = ref 0 in
  Array.iter
    (fun p ->
      let r = p.p_xs.Mat.rows in
      Array.blit p.p_states 0 states !off r;
      Array.blit p.p_xs.Mat.data 0 data (!off * d) (r * d);
      off := !off + r)
    reqs;
  let xs = Mat.unsafe_of_flat ~rows:n ~cols:d data in
  (* Merged budget = the loosest member's (a member with no budget
     means no merged budget).  When the max expires, every member's
     earlier deadline has too, so answering everyone Deadline on
     [Early_stop] wrongs no one; a min would abort loose-budget
     requests that merged with tight ones. *)
  let deadline =
    Array.fold_left
      (fun acc p ->
        match (acc, p.p_deadline) with
        | None, _ | _, None -> None
        | Some a, Some b -> Some (Float.max a b))
      (Some neg_infinity) reqs
  in
  let t_compute = Unix.gettimeofday () in
  let result =
    match Engine.predict_batch ?pool:t.pool ?deadline model ~states ~xs with
    | r -> Ok r
    | exception e -> Error e
  in
  let t_end = Unix.gettimeofday () in
  (match t.stats with
  | Some s ->
      Stats.record_flush s ~requests:(Array.length reqs) ~points:n;
      Array.iter
        (fun p ->
          Stats.record_batch_phase s
            ~batch_wait:(t_compute -. p.p_enqueued)
            ~compute:(t_end -. t_compute))
        reqs
  | None -> ());
  match result with
  | Error e -> Array.iter (fun p -> settle t p (Raise e)) reqs
  | Ok (means, sds) ->
      let off = ref 0 in
      Array.iter
        (fun p ->
          let r = p.p_xs.Mat.rows in
          let outcome =
            (* Re-check each member's own budget after compute:
               coalescing must never let a request that would have
               missed its deadline alone slip through late. *)
            match p.p_deadline with
            | Some dl when t_end > dl -> Raise deadline_fault
            | _ ->
                Reply (Array.sub means !off r, Array.sub sds !off r)
          in
          off := !off + r;
          settle t p outcome)
        reqs

(* Split one model's FIFO run into merged calls of at most
   [max_points] points, never splitting a request (one bigger than the
   cap runs alone). *)
let flush_group t model ps =
  let chunk = ref [] and chunk_pts = ref 0 in
  let emit () =
    if !chunk <> [] then run_merged t model (List.rev !chunk);
    chunk := [];
    chunk_pts := 0
  in
  List.iter
    (fun p ->
      let r = p.p_xs.Mat.rows in
      if !chunk <> [] && !chunk_pts + r > t.max_points then emit ();
      chunk := p :: !chunk;
      chunk_pts := !chunk_pts + r)
    ps;
  emit ()

let flush t batch =
  let now = Unix.gettimeofday () in
  let live, dead =
    List.partition
      (fun p ->
        match p.p_deadline with Some d -> now <= d | None -> true)
      batch
  in
  (* Already past budget: answer without burning compute on them. *)
  List.iter (fun p -> settle t p (Raise deadline_fault)) dead;
  let ok, bad = List.partition valid live in
  List.iter
    (fun p ->
      let outcome =
        match
          Engine.predict_batch ?pool:t.pool ?deadline:p.p_deadline p.p_model
            ~states:p.p_states ~xs:p.p_xs
        with
        | r -> Reply (fst r, snd r)
        | exception e -> Raise e
      in
      settle t p outcome)
    bad;
  (* Group by physical model (identity, not name: a reload swaps the
     model value, and generations must never merge), preserving
     arrival order within and across groups. *)
  let groups : (Model.t * pending list ref) list ref = ref [] in
  List.iter
    (fun p ->
      match List.find_opt (fun (m, _) -> m == p.p_model) !groups with
      | Some (_, l) -> l := p :: !l
      | None -> groups := !groups @ [ (p.p_model, ref [ p ]) ])
    ok;
  List.iter (fun (m, l) -> flush_group t m (List.rev !l)) !groups

let drainer_loop t =
  let continue_ = ref true in
  while !continue_ do
    Mutex.lock t.lock;
    while Queue.is_empty t.queue && not t.stopping do
      Condition.wait t.wake t.lock
    done;
    if Queue.is_empty t.queue then begin
      (* stopping, nothing left *)
      Mutex.unlock t.lock;
      continue_ := false
    end
    else begin
      (* Window anchored at the oldest pending request's enqueue: on
         the idle→busy edge that is "just arrived" and we park for the
         window; coming back from a long merged call it is already in
         the past and the drain is immediate. *)
      let close =
        (Queue.peek t.queue).p_enqueued
        +. (float_of_int t.window_us *. 1e-6)
      in
      let rec park () =
        let now = Unix.gettimeofday () in
        if (not t.stopping) && t.q_points < t.max_points && now < close
        then begin
          Mutex.unlock t.lock;
          Thread.delay (Float.min (close -. now) 0.001);
          Mutex.lock t.lock;
          park ()
        end
      in
      park ();
      let batch =
        List.rev (Queue.fold (fun acc p -> p :: acc) [] t.queue)
      in
      Queue.clear t.queue;
      t.q_points <- 0;
      Mutex.unlock t.lock;
      flush t batch
    end
  done

let create ?stats ?pool ~window_us ~max_points () =
  if window_us < 0 then invalid_arg "Batcher.create: negative window";
  if max_points < 1 then invalid_arg "Batcher.create: max_points below 1";
  let t =
    {
      lock = Mutex.create ();
      wake = Condition.create ();
      queue = Queue.create ();
      q_points = 0;
      window_us;
      max_points;
      stats;
      pool;
      stopping = false;
      drainer = None;
    }
  in
  if window_us > 0 then t.drainer <- Some (Thread.create drainer_loop t);
  t

let submit t ?deadline ~model ~states ~xs () =
  let direct () = Engine.predict_batch ?pool:t.pool ?deadline model ~states ~xs in
  if t.window_us = 0 then direct ()
  else begin
    let p =
      {
        p_model = model;
        p_states = states;
        p_xs = xs;
        p_deadline = deadline;
        p_enqueued = Unix.gettimeofday ();
        p_cond = Condition.create ();
        p_done = None;
      }
    in
    Mutex.lock t.lock;
    if t.stopping then begin
      (* The drainer may already be gone; don't strand the request. *)
      Mutex.unlock t.lock;
      direct ()
    end
    else begin
      Queue.push p t.queue;
      t.q_points <- t.q_points + xs.Mat.rows;
      if Queue.length t.queue = 1 then Condition.signal t.wake;
      while p.p_done = None do
        Condition.wait p.p_cond t.lock
      done;
      Mutex.unlock t.lock;
      match p.p_done with
      | Some (Reply (means, sds)) -> (means, sds)
      | Some (Raise e) -> raise e
      | None -> assert false
    end
  end

let stop t =
  Mutex.lock t.lock;
  t.stopping <- true;
  Condition.signal t.wake;
  Mutex.unlock t.lock;
  match t.drainer with
  | Some th ->
      Thread.join th;
      t.drainer <- None
  | None -> ()
