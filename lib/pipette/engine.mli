(** Cycle-level timing replay of micro-op traces on the Pipette
    architecture. Each pipeline stage is an SMT thread; per cycle a core
    dispatches in program order, issues out of order within per-thread
    windows (subject to data deps, memory ports, queue occupancy, and
    branch redirects), and retires in order. Stall cycles fast-forward
    through an event heap. *)

type queue_attr = {
  qa_id : int;
  qa_capacity : int;
  qa_full : int array;
      (** per thread: cycles blocked enqueueing into this queue while it was
          full (downstream backpressure) *)
  qa_empty : int array;
      (** per thread: cycles starved waiting on a dequeue from this queue
          (upstream too slow) *)
  qa_enqs : int array;  (** per thread: enqueues issued (the producer map) *)
  qa_deqs : int array;  (** per thread: dequeues issued (the consumer map) *)
  qa_occ_hist : int array;
      (** cycles spent at each occupancy 0..capacity; buckets sum exactly to
          the run's cycle count *)
}

type attribution = {
  at_queues : queue_attr array;  (** indexed by queue id *)
  at_issue : int array;  (** per-thread 4-way split, summing to aggregates *)
  at_backend : int array;
  at_queue : int array;
  at_other : int array;
  at_barrier : int array;
      (** per thread: barrier-wait cycles, included in [at_queue] *)
  at_backend_level : int array array;
      (** per thread: backend stalls blamed on the serving cache level
          [|port/unattributed; L1; L2; L3; DRAM|], summing to [at_backend] *)
}
(** Refined stall attribution. Reconciliation invariants: for every thread
    [t], [sum_q qa_full.(t) + sum_q qa_empty.(t) + at_barrier.(t) =
    at_queue.(t)] and [Array.fold_left (+) 0 at_backend_level.(t) =
    at_backend.(t)]; the per-thread arrays sum to the aggregate fields of
    {!result}. *)

type result = {
  cycles : int;
  instrs : int;
  issue_cycles : int;  (** summed over threads *)
  backend_cycles : int;
  queue_cycles : int;
  other_cycles : int;
  cache : Cache.counters;
  branch_lookups : int;
  branch_mispredicts : int;
  queue_ops : int;
  ra_fetches : int;
  n_threads : int;
  n_cores_used : int;
  attribution : attribution;
}

val default_cycle_budget : int
(** 500M cycles: the bailout when a replay never terminates. *)

val default_watchdog : int
(** 5M cycles: the no-retire window after which a still-ticking replay is
    declared livelocked. *)

val default_thread_core : Config.t -> int -> int array
(** [default_thread_core cfg n] packs [n] threads onto cores,
    [cfg.smt_threads] per core; raises [Invalid_argument] if they do not
    fit. *)

val run :
  ?cfg:Config.t ->
  ?thread_core:int array ->
  ?ra_core:int array ->
  ?queue_caps:(int * int) list ->
  ?telemetry:Telemetry.t ->
  ?faults:Faults.t ->
  ?watchdog:int ->
  ?cycle_budget:int ->
  Phloem_ir.Types.pipeline ->
  Phloem_ir.Trace.t ->
  result
(** Replay [trace] of pipeline [p] and return cycle counts, breakdowns, and
    the refined stall {!attribution}. [queue_caps] overrides individual
    queue capacities as [(queue id, capacity)] pairs without touching the
    pipeline itself — the autotuner's per-queue depth knob; entries naming
    unknown queues or capacities below 1 are ignored. [telemetry], when
    given, receives
    interval samples and per-thread stall-state timelines; [faults] injects
    a deterministic fault plan (see {!Faults}); with [?faults:None] and no
    watchdog trip every counter is byte-identical to the unhooked engine.

    Raises [Invalid_argument] when [max 16 cfg.rob_size] is
    {!Phloem_ir.Trace.max_distance} or more: a thread's window must hold
    fewer ops than a saturated dependence distance names. The caches and
    the branch predictor are kept per domain and reset for each replay.

    A replay that cannot finish raises
    [Phloem_ir.Forensics.Pipeline_failure] with a structured report that
    separates the three failure modes: {e deadlock} (no thread can ever
    run again — the report names the cyclic wait chain over queues),
    {e livelock} (cycles keep elapsing but nothing retired within the
    [watchdog] window, default {!default_watchdog}), and {e budget
    exhaustion} (ops were still retiring when [cycle_budget], default
    {!default_cycle_budget}, ran out). *)
