(** The one host clock. Every interval the library and tools measure (pass
    timers, request spans, queue waits, uptime, client latency) is the
    difference of two readings of {!now}. *)

val now : unit -> float
(** Seconds on CLOCK_MONOTONIC. The origin is arbitrary, so only
    differences mean anything; the clock never steps backwards. *)
