(** Bottleneck attribution: turns a run's refined stall counters
    ({!Engine.attribution}) into an actionable report — per-stage
    issue/stall balance, the critical (most stall-attributed) queue with
    backpressure vs starvation direction, per-cache-level backend blame,
    and a quantified headroom estimate for splitting the bottleneck
    stage. *)

type stage_report = {
  st_thread : int;
  st_name : string;
  st_issue : int;  (** cycles with at least one op issued *)
  st_backend : int;  (** stalled on memory or operands *)
  st_backend_level : int array;
      (** [|port/unattributed; L1; L2; L3; DRAM|], sums to [st_backend] *)
  st_queue_full : int;  (** blocked enqueueing: downstream backpressure *)
  st_queue_empty : int;  (** starved dequeueing: upstream too slow *)
  st_barrier : int;
  st_other : int;  (** frontend / mispredict recovery *)
  st_total : int;  (** cycles accounted to this thread *)
  st_service : int;
      (** [issue + backend + other]: cycles spent on the stage's own work
          rather than waiting on the pipeline *)
}

type queue_report = {
  q_id : int;
  q_capacity : int;
  q_full : int;  (** producer-blocked cycles, summed over threads *)
  q_empty : int;  (** consumer-starved cycles, summed over threads *)
  q_enqs : int;
  q_deqs : int;
  q_producers : int list;  (** thread ids observed enqueueing *)
  q_consumers : int list;
  q_occ_hist : int array;  (** buckets sum to the run's cycle count *)
  q_mean_occ : float;
  q_frac_full : float;  (** fraction of the run at full occupancy *)
  q_frac_empty : float;  (** fraction of the run empty *)
}

type report = {
  r_cycles : int;
  r_stages : stage_report array;
  r_queues : queue_report array;
  r_bottleneck : int option;  (** thread id of the highest-service stage *)
  r_critical_queue : int option;  (** most stall-attributed queue id *)
  r_headroom : float;
      (** estimated speedup bound if the bottleneck stage were split:
          [cycles / next-highest stage service], clamped to [>= 1] *)
  r_diagnosis : string list;  (** human-readable findings, in order *)
}

type queue_direction =
  | Backpressure  (** producers blocked on a full queue *)
  | Starvation  (** consumers starved on an empty queue *)

type verdict =
  | Balanced
      (** headroom below threshold, or no attributable bottleneck: stop
          expanding this configuration *)
  | Queue_bound of { qb_queue : int; qb_direction : queue_direction }
      (** the critical queue absorbs a material share (>= 5%) of the run's
          cycles in stalls *)
  | Backend_bound of { bb_stage : int; bb_level : int }
      (** the bottleneck stage stalls on memory more than it issues;
          [bb_level] indexes [|port; L1; L2; L3; DRAM|] *)
  | Compute_bound of { cb_stage : int }
      (** the bottleneck stage is issue-limited: split it or add cores *)

val classify : ?headroom_threshold:float -> report -> verdict
(** Collapse a report into the single category the autotuner's move
    generator branches on. [headroom_threshold] (default 1.05) is the
    estimated-speedup floor below which a run counts as [Balanced]. *)

val verdict_to_string : verdict -> string

val of_result : ?stage_names:string array -> Engine.result -> report
(** Build a report from a finished run. [stage_names], when given, labels
    threads by pipeline stage (missing entries fall back to [threadN]). *)

val render : report -> string
(** Human-readable report: per-stage and per-queue tables, a queue-stall
    reconciliation line, and the diagnosis list. *)

val json_of_report : report -> Phloem_util.Json.t

val json_of_failure : Phloem_ir.Forensics.report -> Phloem_util.Json.t
(** Machine-readable form of a structured pipeline-failure report (failure
    kind + exit code, per-agent blocked-on states, queue occupancy
    snapshot, the cyclic wait chain, diagnosis), used by the CLI JSON
    output and the harness ["errors"] arrays. *)
