(* Log-spaced 1–2–5 bucket edges, 1 µs to 10 s, plus +inf overflow. *)
let bucket_edges_us =
  [|
    1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1e3; 2e3; 5e3; 1e4; 2e4; 5e4;
    1e5; 2e5; 5e5; 1e6; 2e6; 5e6; 1e7; infinity;
  |]

let n_buckets = Array.length bucket_edges_us

(* A fixed-bucket histogram with its own count: request latency, each
   latency phase and the batch-occupancy distribution (whose "µs" are
   points) share the same quantile and JSON machinery. *)
type hist = { counts : int array; mutable n : int }

let hist_make () = { counts = Array.make n_buckets 0; n = 0 }

type t = {
  lock : Mutex.t;
  ops : (string, int) Hashtbl.t;
  mutable errors : int;
  mutable points : int;
  mutable max_batch : int;
  latency : hist;
  mutable sheds : int;  (* connections refused by admission control *)
  mutable deadlines : int;  (* requests answered Deadline_exceeded *)
  mutable queue_depth : int;  (* gauge: pending connections right now *)
  mutable queue_peak : int;  (* high-water mark of the gauge *)
  (* Latency split: time on the admission queue (accept → worker
     pickup, per connection) and engine compute time (per predict). *)
  queue_wait : hist;
  compute : hist;
  (* Points per engine call (the buckets are point counts, not µs)
     and the number of calls; each call serves one wire request, so
     the JSON's [coalesced_requests] repeats [flushes]. *)
  occupancy : hist;
  mutable flushes : int;  (* engine calls *)
  mutable max_occupancy : int;
}

let create () =
  {
    lock = Mutex.create ();
    ops = Hashtbl.create 8;
    errors = 0;
    points = 0;
    max_batch = 0;
    latency = hist_make ();
    sheds = 0;
    deadlines = 0;
    queue_depth = 0;
    queue_peak = 0;
    queue_wait = hist_make ();
    compute = hist_make ();
    occupancy = hist_make ();
    flushes = 0;
    max_occupancy = 0;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let bucket_of_us us =
  let i = ref 0 in
  while us > bucket_edges_us.(!i) do incr i done;
  !i

let hist_add h v =
  h.counts.(bucket_of_us v) <- h.counts.(bucket_of_us v) + 1;
  h.n <- h.n + 1

let record ?batch t ~op ~ok ~seconds =
  locked t (fun () ->
      Hashtbl.replace t.ops op
        (1 + Option.value ~default:0 (Hashtbl.find_opt t.ops op));
      if not ok then t.errors <- t.errors + 1;
      (match batch with
      | Some b ->
          t.points <- t.points + b;
          if b > t.max_batch then t.max_batch <- b
      | None -> ());
      hist_add t.latency (Float.max 0.0 (seconds *. 1e6)))

let record_queue_wait t ~seconds =
  locked t (fun () -> hist_add t.queue_wait (Float.max 0.0 (seconds *. 1e6)))

let record_engine_call t ~points ~seconds =
  locked t (fun () ->
      hist_add t.compute (Float.max 0.0 (seconds *. 1e6));
      hist_add t.occupancy (float_of_int (max 1 points));
      t.flushes <- t.flushes + 1;
      if points > t.max_occupancy then t.max_occupancy <- points)

let record_shed t =
  locked t (fun () -> t.sheds <- t.sheds + 1)

let record_deadline t =
  locked t (fun () -> t.deadlines <- t.deadlines + 1)

let set_queue_depth t depth =
  locked t (fun () ->
      t.queue_depth <- depth;
      if depth > t.queue_peak then t.queue_peak <- depth)

let sheds t = locked t (fun () -> t.sheds)

let deadlines t = locked t (fun () -> t.deadlines)

let hist_quantile h q =
  if h.n = 0 then 0.0
  else begin
    let target = Float.of_int h.n *. q in
    let acc = ref 0 in
    let i = ref 0 in
    while !i < n_buckets - 1 && Float.of_int (!acc + h.counts.(!i)) < target do
      acc := !acc + h.counts.(!i);
      incr i
    done;
    bucket_edges_us.(!i)
  end

let json_float f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%g" f

(* [{<lead>"p50<unit>":..,"p99<unit>":..,"buckets":[[edge,count],..]}]
   with only the non-empty buckets; [lead] defaults to the count. *)
let hist_json ?lead ?(unit = "") h =
  let lead =
    match lead with Some l -> l | None -> Printf.sprintf "\"count\":%d," h.n
  in
  let buckets =
    List.filter_map
      (fun i ->
        if h.counts.(i) = 0 then None
        else
          let edge =
            if Float.is_finite bucket_edges_us.(i) then
              json_float bucket_edges_us.(i)
            else "\"inf\""
          in
          Some (Printf.sprintf "[%s,%d]" edge h.counts.(i)))
      (List.init n_buckets Fun.id)
  in
  Printf.sprintf "{%s\"p50%s\":%s,\"p99%s\":%s,\"buckets\":[%s]}" lead
    unit
    (json_float (hist_quantile h 0.5))
    unit
    (json_float (hist_quantile h 0.99))
    (String.concat "," buckets)

let to_json ?(extra = []) t =
  locked t (fun () ->
      let ops =
        Hashtbl.fold (fun op n acc -> (op, n) :: acc) t.ops []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
        |> List.map (fun (op, n) -> Printf.sprintf "%S:%d" op n)
      in
      let members =
        [
          ("requests", "{" ^ String.concat "," ops ^ "}");
          ("errors", string_of_int t.errors);
          ("points", string_of_int t.points);
          ("max_batch", string_of_int t.max_batch);
          ("sheds", string_of_int t.sheds);
          ("deadline_exceeded", string_of_int t.deadlines);
          ("queue_depth", string_of_int t.queue_depth);
          ("queue_peak", string_of_int t.queue_peak);
          ("latency_us", hist_json t.latency);
          (* Latency split: where a request's time went — admission
             queue and engine compute.  [batch_wait_us] stays in the
             schema for its readers, always empty: predicts call the
             engine inline, so nothing waits for a batch. *)
          ( "phases",
            Printf.sprintf
              "{\"queue_wait_us\":%s,\"batch_wait_us\":%s,\"compute_us\":%s}"
              (hist_json t.queue_wait) (hist_json (hist_make ()))
              (hist_json t.compute) );
          (* Points per engine call (bucket edges are point counts
             here, not µs). *)
          ( "batch_occupancy",
            hist_json ~unit:"_points"
              ~lead:
                (Printf.sprintf
                   "\"flushes\":%d,\"coalesced_requests\":%d,\"max_points\":%d,"
                   t.flushes t.flushes t.max_occupancy)
              t.occupancy );
        ]
        @ extra
      in
      let member (name, value) = Printf.sprintf "%S:%s" name value in
      "{" ^ String.concat "," (List.map member members) ^ "}")

let registry_json (r : Registry.stats) =
  Printf.sprintf
    "{\"hits\":%d,\"misses\":%d,\"loads\":%d,\"evictions\":%d,\
     \"reloads\":%d,\"generation\":%d,\
     \"resident_bytes\":%d,\"resident_models\":%d,\"max_bytes\":%d}"
    r.Registry.hits r.Registry.misses r.Registry.loads r.Registry.evictions
    r.Registry.reloads r.Registry.generation
    r.Registry.resident_bytes r.Registry.resident_models r.Registry.max_bytes
