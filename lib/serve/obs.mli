(** Service-level observability for phloemd: a {!Phloem_util.Metrics}
    registry plus a request-span recorder and slow-request threshold,
    bundled as one optional handle threaded through the server, its
    workers, and the job runner.

    The server takes [Obs.t option]; [None] (the default) leaves the
    request path untouched — cache hits still splice raw payload bytes
    with no extra clock reads.

    Span taxonomy (tracks become Chrome trace threads):
    - [reader-<client>]: [parse], [cache-lookup], [respond] (hit path)
    - [queue]: [queue-wait] per job, from submit to a worker's take
    - [worker-<domain>]: [execute] containing [compile], [trace],
      [simulate] and [serialize], then [respond] (cold path) *)

type t

val create : ?slow_ms:float -> unit -> t
(** [slow_ms] enables the slow-request log at that latency threshold. The
    recorder keeps {!Phloem_util.Metrics.recorder}'s default bound. *)

val metrics : t -> Phloem_util.Metrics.t
(** The underlying registry, for callers adding their own instruments
    (the server's request counters and the autotuner's progress counters
    use this). *)

val spans : t -> Phloem_util.Metrics.span list
(** All recorded request spans, sorted by start time. *)

val now : unit -> float
(** {!Phloem_util.Clock.now}: monotonic seconds, the time base of all
    spans and request latencies. *)

val next_trace : t -> int
(** Allocate a fresh request/trace id. *)

val record :
  t -> trace:int -> track:string -> name:string -> start:float -> stop:float -> unit
(** Record a completed span. *)

val span : t -> trace:int -> track:string -> name:string -> (unit -> 'a) -> 'a
(** Time a thunk and record it as a span — also when it raises. *)

val observe_queue_wait : t -> float -> unit
(** Feed one job's queue-wait (seconds) to the queue-wait histogram. *)

val finish_request : t -> trace:int -> hit:bool -> start:float -> label:string -> unit
(** Close out one simulate request: observe its latency into the hit or
    miss histogram and emit the slow-request log when past the threshold.
    [label] identifies the request in the log (bench/input). *)

val metrics_json : t -> Phloem_util.Json.t
(** [{counters; gauges; histograms; spans}] — histograms carry
    count/sum/min/max/mean, derived p50/p95/p99, and non-empty buckets. *)

val trace_json : t -> Phloem_util.Json.t
(** Chrome trace-event export of the recorded request spans: one process
    ("phloemd"), one thread per span track, microsecond timestamps
    relative to the earliest span. *)

val write_metrics_file : t -> string -> unit
(** Atomic (tmp + rename) write: Prometheus text when the filename ends in
    [.prom], the {!metrics_json} JSON otherwise. *)

val write_trace_file : t -> string -> unit
(** Atomic write of {!trace_json}. *)
