(** Domain-safe metrics registry and span recorder.

    Counters and gauges are lock-free atomics; histograms (see
    {!Stats.hist}) take a short critical section per observation. The
    module has no notion of time: callers pass seconds read from
    {!Clock.now}.

    Typical use: resolve instrument handles once ({!counter},
    {!histogram}), hammer them from any domain or thread, and read a
    consistent {!snapshot} from a reporting thread. *)

type t
(** A registry of named instruments. *)

val create : unit -> t

(** {1 Instruments} *)

type counter
type gauge
type histogram

val counter : t -> string -> counter
(** Get or create. The same name always yields the same instrument. *)

val gauge : t -> string -> gauge

val histogram : t -> string -> histogram
(** Get or create, with {!Stats.hist_create}'s default layout. *)

val incr : ?by:int -> counter -> unit
val counter_value : counter -> int
val set : gauge -> float -> unit
val gauge_value : gauge -> float

val observe : histogram -> float -> unit
(** Record one observation (NaN ignored). *)

val observed : histogram -> Stats.hist
(** Race-free copy of the underlying histogram. *)

(** {1 Snapshots} *)

type snapshot = {
  sn_counters : (string * int) list;
  sn_gauges : (string * float) list;
  sn_hists : (string * Stats.hist) list;
}
(** Point-in-time view, each section sorted by name. Histograms are copies;
    mutating the registry afterwards does not affect a snapshot. *)

val snapshot : t -> snapshot

val merge : snapshot -> snapshot -> snapshot
(** Counters and histograms sum; gauges keep the max. *)

val to_prometheus : snapshot -> string
(** Prometheus text exposition: counters, gauges, and histograms with
    cumulative [_bucket{le=...}] lines plus [_sum]/[_count]. Names are
    sanitized to [[a-zA-Z0-9_:]]. *)

(** {1 Span recorder} *)

type span = {
  sp_trace : int;  (** request/trace id the span belongs to *)
  sp_track : string;  (** logical thread: "reader-3", "dispatcher", ... *)
  sp_name : string;  (** phase: "parse", "queue-wait", "execute", ... *)
  sp_start : float;  (** {!Clock.now} seconds *)
  sp_stop : float;
}

type recorder
(** Bounded buffer of completed spans; safe across domains. *)

val recorder : ?max_spans:int -> unit -> recorder
(** Default capacity 65536 spans; once full, further spans are counted in
    {!dropped_spans} rather than evicting history, so the head of a trace
    is always retained. @raise Invalid_argument if [max_spans < 1]. *)

val record :
  recorder ->
  trace:int ->
  track:string ->
  name:string ->
  start:float ->
  stop:float ->
  unit

val spans : recorder -> span list
(** All retained spans sorted by start time. *)

val span_count : recorder -> int
val dropped_spans : recorder -> int
