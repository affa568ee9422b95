(** phloemd's core server: accepts line-delimited JSON requests on a
    Unix-domain (and optionally TCP) socket, serves repeated requests from
    the content-addressed result cache in O(lookup), and hands cold jobs
    through a bounded fair {!Scheduler} to worker domains, each running
    one job at a time and answering it as soon as it finishes; a job whose
    content key another worker is running waits for that run and shares
    its result. Per-job
    failures (deadlock, livelock, budget, bad names, any other exception)
    become structured JSON error responses on their own connection; the
    daemon never dies with a job. *)

type opts = {
  so_unix : string option;  (** Unix-domain socket path *)
  so_tcp : int option;  (** TCP port on 127.0.0.1 *)
  so_jobs : int;
      (** worker domains executing jobs, clamped by {!worker_domains} *)
  so_queue_limit : int;  (** job-queue bound; submits past it shed *)
  so_cache_entries : int;  (** result-cache entry bound *)
  so_max_request : int;  (** request line byte bound *)
  so_obs : Obs.t option;
      (** service metrics + request tracing; [None] (the default) leaves
          the request path untouched — cache hits still splice raw payload
          bytes with no extra clock reads *)
}

val default_opts : opts
(** jobs 1, queue limit 64, 256 cache entries, 1 MiB requests,
    observability off; no listeners — set [so_unix] and/or [so_tcp]. *)

val worker_domains : recommended:int -> int -> int
(** [worker_domains ~recommended jobs] is how many worker domains {!run}
    spawns for [so_jobs = jobs] on a machine whose recommended domain
    count is [recommended]: [jobs] clamped to [1 .. min recommended 127].
    OCaml 5.1 runs at most 128 domains, and the caller's domain is one. *)

type t

val create : opts -> t
(** Bind and listen on the configured sockets (the Unix path is created —
    and any stale file replaced — before this returns, so a caller can
    connect as soon as {!run} starts).
    @raise Invalid_argument when neither listener is configured
    @raise Unix.Unix_error when binding fails *)

val run : t -> unit
(** Serve until {!stop}: spawns the worker domains, then blocks the
    calling thread in the accept loop, spawning one reader thread per
    connection in the caller's domain. Worker domains block SIGTERM and
    SIGINT, so handlers for them run in the caller's domain. On stop,
    already-accepted jobs drain and receive responses before connections
    close. *)

val stop : t -> unit
(** Begin graceful shutdown; idempotent, callable from any thread or from
    a signal handler. {!run} returns once queued jobs have drained. *)

val stopped : t -> bool

val stats_json : t -> Phloem_util.Json.t
(** The stats payload served for [{"kind":"stats"}] requests: the
    effective worker count ([jobs]), request / response counters,
    result-cache and scheduler stats (including queue-wait totals), and
    the simulator's memo-cache counters. With observability enabled, an
    extra ["metrics"] section carries the {!Obs.metrics_json} snapshot —
    latency histograms with derived percentiles and span counts. *)
