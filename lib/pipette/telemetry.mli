(** Observability layer for the timing engine: a counter/gauge probe
    registry with periodic interval sampling, per-thread stall-state
    timelines, JSON reports (built with {!Phloem_util.Json}, re-exported
    here as [Json]), and a Chrome trace-event exporter (loadable in
    chrome://tracing or Perfetto).

    The engine owns the probes: it registers readers against a {!t} created
    by the caller, feeds thread-state transitions as it classifies stalls,
    and calls {!maybe_sample} once per simulated step. Counters are sampled
    as deltas since the previous sample, so a run's deltas sum exactly to
    its final aggregates; gauges are instantaneous. *)

module Json = Phloem_util.Json

type sample = {
  s_cycle : int;
  s_values : (string * int) array;
      (** counter deltas since the previous sample / gauge values, in
          registration order *)
}

type span = { sp_thread : int; sp_state : string; sp_start : int; sp_end : int }
type point = { pt_track : string; pt_cycle : int; pt_value : int }

type t

val create : ?interval:int -> ?max_events:int -> unit -> t
(** [create ()] makes an empty telemetry sink sampling every [interval]
    cycles (default 1000), dropping events past [max_events] (default 2M).
    @raise Invalid_argument if [interval <= 0]. *)

val interval : t -> int

val register_counter : t -> name:string -> (unit -> int) -> unit
(** Register a monotonic counter probe; sampled as deltas. *)

val register_gauge : t -> name:string -> (unit -> int) -> unit
(** Register an instantaneous-value probe; also exported as a Chrome
    counter track. *)

val set_thread_meta : t -> thread:int -> core:int -> name:string -> unit

val set_thread_state : t -> thread:int -> cycle:int -> string -> unit
(** Record that [thread] is in [state] as of [cycle]; closes the previous
    state's span when the state changes (zero-length spans are elided). *)

val end_thread_state : t -> thread:int -> cycle:int -> unit

val maybe_sample : t -> cycle:int -> unit
(** Called once per engine step; samples at most once per call, at the
    first crossed interval boundary (fast-forwarded regions collapse into
    one sample so counter deltas still partition the run). *)

val finish : t -> cycle:int -> unit
(** Close all open spans and flush a final sample so counter deltas sum
    exactly to the run's aggregates. Idempotent. *)

val samples : t -> sample list
val spans : t -> span list
val points : t -> point list
val dropped_events : t -> int

val sum_counter : t -> string -> int
(** Sum of a counter probe's deltas across all samples taken so far. *)

val report_json : t -> Json.t
(** [{sample_interval; dropped_events; samples: [{cycle; values}]}]. *)

(** {1 Generic Chrome trace-event emission}

    Shared by the engine exporter and by service-level tracers (phloemd):
    callers reduce their timeline to named processes/threads, complete
    ["X"] spans and ["C"] counter tracks; the format details live here. *)

type trace_span = {
  te_pid : int;
  te_tid : int;
  te_cat : string;
  te_name : string;
  te_ts : int;  (** microseconds *)
  te_dur : int;
}

type trace_counter = { tc_name : string; tc_ts : int; tc_value : int }

val trace_events_json :
  ?process_names:(int * string) list ->
  ?thread_names:((int * int) * string) list ->
  ?counters:trace_counter list ->
  trace_span list ->
  Json.t
(** [{traceEvents: [...]; displayTimeUnit: "ms"}] with ["M"] metadata
    events for each named process/thread, one ["X"] event per span and one
    ["C"] event per counter point. *)

val trace_json : t -> Json.t
(** Chrome trace-event export: per-thread stall-state timelines as complete
    ["X"] events grouped by core, plus one ["C"] counter track per gauge;
    timestamps are simulated cycles via the microsecond field. *)

val write_trace_file : t -> string -> unit
