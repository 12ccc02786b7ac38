(** Thread-safe serving counters and a fixed-bucket latency histogram.

    Latencies land in log-spaced microsecond buckets (1–2–5 per
    decade, 1 µs to 10 s); p50/p99 are read off the histogram as the
    upper edge of the bucket where the cumulative count crosses the
    quantile — coarse, allocation-free, and stable under concurrency.

    {!to_json} renders everything as one JSON object (hand-rolled —
    no JSON dependency) whose schema the serve smoke test validates. *)

type t

val create : unit -> t

val record : ?batch:int -> t -> op:string -> ok:bool -> seconds:float -> unit
(** Count one request of kind [op] ("load", "predict", "stats", …),
    its batch size if any, whether it succeeded, and its wall-clock
    latency. *)

val record_shed : t -> unit
(** One connection refused by admission control (queue full → typed
    [Overloaded] reply and close). *)

val record_deadline : t -> unit
(** One request answered [Deadline_exceeded]. *)

val set_queue_depth : t -> int -> unit
(** Update the pending-connection gauge (also tracks its peak). *)

val record_queue_wait : t -> seconds:float -> unit
(** Time one connection spent on the admission queue (accept → worker
    pickup). *)

val record_engine_call : t -> points:int -> seconds:float -> unit
(** One completed engine call, serving one predict request: its
    compute time in seconds and its point count (the occupancy
    histogram buckets are point counts, not µs). *)

val sheds : t -> int

val deadlines : t -> int

val to_json : ?extra:(string * string) list -> t -> string
(** One JSON object: per-op request counts, error count, total points,
    max batch size, p50/p99 and the non-empty histogram buckets, the
    per-phase latency split ("phases": queue-wait / batch-wait /
    compute; batch-wait is always empty, since predicts run inline)
    and the points-per-engine-call histogram ("batch_occupancy").
    [extra] appends pre-rendered members (e.g.
    [("registry", registry_json)]). *)

val registry_json : Registry.stats -> string
(** The registry counters as a JSON object, for {!to_json}'s [extra]. *)
