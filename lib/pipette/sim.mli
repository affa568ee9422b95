(** One-call simulation façade: validate a pipeline, execute its functional
    (Kahn-network) semantics, then replay the micro-op traces on the
    cycle-level timing model. Every benchmark, example, and experiment goes
    through this entry point. *)

type run = {
  sr_functional : Phloem_ir.Interp.result;
      (** architectural results: final arrays, instruction counts, traces *)
  sr_timing : Engine.result;  (** cycles, breakdowns, cache/branch counters *)
  sr_energy : Energy.breakdown;
}

val cycles : run -> int
val instrs : run -> int

val ra_cores : Phloem_ir.Types.pipeline -> int array -> int array
(** Reference-accelerator placement: each RA sits by the core of the stage
    that consumes its output (chains follow the final consumer). *)

val prepare : Phloem_ir.Types.pipeline -> Phloem_ir.Flat.program array
(** Validate [p] and lower every stage to its flat µop program. Memoized by
    the pipeline's content key ({!Phloem_util.Key.of_value}) in a
    {!Phloem_util.Fifo_cache}, so a sweep that simulates one pipeline under
    many configs compiles it once.
    @raise Phloem_ir.Validate.Invalid on malformed pipelines *)

val functional :
  ?inputs:(string * Phloem_ir.Types.value array) list ->
  Phloem_ir.Types.pipeline ->
  Phloem_ir.Interp.result
(** Execute the functional (Kahn-network) semantics on the compiled µop
    core. Memoized by (pipeline, inputs, op budget); cached traces are
    column-packed before publication so concurrent timing replays on pool
    domains share one read-only snapshot. Failed executions raise and are
    never cached. *)

val simulate :
  ?cfg:Config.t ->
  ?thread_core:int array ->
  ?queue_caps:(int * int) list ->
  ?telemetry:Telemetry.t ->
  ?faults:Faults.t ->
  ?watchdog:int ->
  ?cycle_budget:int ->
  Phloem_ir.Types.pipeline ->
  Phloem_ir.Interp.result ->
  run
(** Replay a functional result's µop traces on the timing model. This is
    the only per-config work in a sweep: callers obtain the functional
    result once via {!functional} and replay it under each config.
    [queue_caps] overrides individual queue capacities for the replay only
    (see {!Engine.run}) — the pipeline, and with it the memoized compiled
    program and functional trace, is untouched. *)

val run :
  ?cfg:Config.t ->
  ?thread_core:int array ->
  ?inputs:(string * Phloem_ir.Types.value array) list ->
  ?telemetry:Telemetry.t ->
  ?faults:Faults.t ->
  ?watchdog:int ->
  ?cycle_budget:int ->
  Phloem_ir.Types.pipeline ->
  run
(** [run p] validates and simulates [p]. [inputs] binds array contents by
    name (missing arrays are zero-initialized); [thread_core] maps stage
    index to core (default: packed, [Config.smt_threads] per core);
    [telemetry], when given, is wired into the timing replay (interval
    samples, stall-class timelines, Chrome trace export) — the default path
    pays no observability cost. [faults], [watchdog], and [cycle_budget]
    are forwarded to {!Engine.run}.
    @raise Phloem_ir.Validate.Invalid on malformed pipelines
    @raise Phloem_ir.Interp.Runtime_error on execution errors
    @raise Phloem_ir.Forensics.Pipeline_failure if the queue network
    deadlocks or livelocks, or the cycle budget runs out — the exception
    carries a structured report (failure kind, per-agent blocked-on state,
    cyclic wait chain, queue occupancy snapshot, diagnosis) *)

val run_tree :
  ?cfg:Config.t ->
  ?thread_core:int array ->
  ?inputs:(string * Phloem_ir.Types.value array) list ->
  ?telemetry:Telemetry.t ->
  ?faults:Faults.t ->
  ?watchdog:int ->
  ?cycle_budget:int ->
  Phloem_ir.Types.pipeline ->
  run
(** Reference path: identical to {!run} but executes the functional
    semantics on the tree-walking interpreter, bypassing the compiled core
    and every cache. Differential tests assert [run] and [run_tree] agree
    byte-for-byte on results, timing, attribution, and failures. *)

val clear_caches : unit -> unit
(** Drop all memoized programs and traces and zero their counters. *)

val set_cache_capacity : int -> unit
(** Set the FIFO bound (entries) of both the compiled-program and the
    functional-trace cache (default 64 each). Shrinking below the current
    occupancy evicts oldest-first immediately, so the bound always holds.
    @raise Invalid_argument if the capacity is < 1. *)

type cache_counters = {
  cc_program_hits : int;
  cc_program_misses : int;
  cc_program_evictions : int;
  cc_program_entries : int;  (** compiled programs currently cached *)
  cc_trace_hits : int;
  cc_trace_misses : int;
  cc_trace_evictions : int;
  cc_trace_entries : int;  (** functional traces currently cached *)
  cc_capacity : int;  (** current FIFO bound of each cache *)
}
(** Hit / miss / eviction / occupancy counters of both memo tables, for a
    long-lived server's stats endpoint. Counters reset on {!clear_caches}. *)

val cache_counters : unit -> cache_counters

val stage_names : Phloem_ir.Types.pipeline -> string array
(** Stage names in thread order, for labeling {!analyze} reports. *)

val analyze : ?stage_names:string array -> run -> Analysis.report
(** Bottleneck attribution for a finished run; see {!Analysis.of_result}. *)

val json_of_run : run -> Phloem_util.Json.t
(** Machine-readable report of a run's aggregate counters (cycles, IPC,
    cycle breakdown, cache/branch/queue/RA counters, energy). The values
    equal the plain-text reports printed by the CLI tools. *)
