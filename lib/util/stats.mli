(** Small statistics helpers used by the evaluation harness. *)

val mean : float list -> float
(** Arithmetic mean. @raise Invalid_argument on the empty list. *)

val gmean : float list -> float
(** Geometric mean (the paper reports gmean speedups).
    @raise Invalid_argument on an empty list or non-positive element. *)

val min_max : float list -> float * float
(** @raise Invalid_argument on the empty list. *)

val percentile : float -> float list -> float
(** [percentile p xs] with [p] in [\[0,1\]], nearest-rank on the sorted list. *)

(** {1 Log-bucketed histograms}

    Bounded-memory summaries for long-lived services: percentiles are derived
    from bucket counts rather than retained samples, with relative error
    bounded by the bucket growth factor. Not thread-safe on their own —
    callers synchronize (see {!Metrics}). *)

type hist
(** Mutable log-bucketed histogram. *)

val hist_create : ?lo:float -> ?growth:float -> ?buckets:int -> unit -> hist
(** [hist_create ()] spans \[1e-6, 1e3) with 45 buckets growing by
    [10^0.2] (5 per decade) plus underflow/overflow buckets.
    @raise Invalid_argument if [lo <= 0], [growth <= 1] or [buckets < 1]. *)

val hist_add : hist -> float -> unit
(** Record one observation. NaN observations are ignored. *)

val hist_count : hist -> int
val hist_sum : hist -> float
val hist_mean : hist -> float
(** 0 on an empty histogram. *)

val hist_min : hist -> float option
val hist_max : hist -> float option

val hist_copy : hist -> hist
(** Deep copy (for race-free snapshots under the owner's lock). *)

val hist_merge : hist -> hist -> hist
(** Fresh histogram holding the union of both inputs.
    @raise Invalid_argument if the bucket layouts differ. *)

val hist_buckets : hist -> (float * float * int) list
(** Non-empty buckets as [(lo, hi, count)], ascending. Underflow reports
    [lo = 0.]; overflow reports [hi = infinity]. *)

val percentile_hist : float -> hist -> float
(** [percentile_hist p h] with [p] in [\[0,1\]]: rank-compatible with
    {!percentile}, linearly interpolated within the covering bucket and
    clamped to the observed \[min, max\]. The extreme ranks are exact (the
    tracked min and max); interior ranks are within a factor of [growth]
    of the exact nearest-rank percentile.
    @raise Invalid_argument on an empty histogram or [p] out of range. *)
