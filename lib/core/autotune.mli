(** Analysis-guided autotuning over the full pipeline design space: cut
    sets x per-queue capacities x stage replication x scan-chaining x
    core count (SMT threads are packed {!Pipette.Config.smt_threads} per
    core, so the core count is the thread-mapping knob).

    The search is a beam-limited wave expansion. Wave 0 seeds the
    frontier with the serial configuration plus every cut set of
    {!enumerate_cut_sets}. Run alone — a [budget] of exactly the seed
    count — wave 0 is the paper's profile-guided search (Sec. V, Fig. 8),
    with [o_cut_only] as its recipe; otherwise it guarantees the
    tuned result never loses to cut-set-only PGO on the same training
    inputs. Each wave simulates its frontier in
    parallel over the pool, classifies every candidate's bottleneck
    report ({!Pipette.Analysis.classify}), and expands the wave's best
    [beam] survivors with moves directed by the diagnosis: a
    backpressured queue is deepened or its pipeline replicated, a
    starving consumer loses its upstream cut, a DRAM-bound stage gets
    scan-chaining, an issue-bound stage gets more cuts or cores; a
    [Balanced] verdict (headroom below threshold) stops expansion.
    Visited configurations are deduplicated by canonical digest and a
    [budget] caps total simulations, so the search always terminates with
    an anytime best-so-far.

    Per-candidate cost is one timing replay: compiled programs and
    functional traces are memoized inside {!Pipette.Sim}, and the
    queue-capacity knob is an engine-side override that leaves those memo
    keys untouched. *)

type config = {
  at_cuts : Costmodel.cut list;  (** in program order *)
  at_queue_caps : (int * int) list;
      (** per-queue capacity overrides, sorted by queue id; queue ids are
          assigned during decoupling, so overrides never survive a move
          that reshapes the pipeline *)
  at_chain : bool;  (** run the scan-chain pass *)
  at_replicas : int;  (** 1 = no replication *)
  at_cores : int;
}

type space = {
  sp_cut_pool : Costmodel.cut list;  (** the top-k ranked cuts *)
  sp_max_queue_cap : int;
  sp_max_replicas : int;
  sp_max_cores : int;
  sp_headroom_threshold : float;
      (** verdicts below this estimated speedup are [Balanced] *)
}

type move =
  | M_seed  (** wave-0 frontier member, no parent *)
  | M_deepen of int * int  (** double queue [q] to the given capacity *)
  | M_add_cut of int  (** cut identified by its first load id *)
  | M_drop_cut of int
  | M_toggle_chain
  | M_replicate of int  (** new replica count *)
  | M_cores of int  (** new core count *)

type status =
  | Run_ok of {
      ok_cycles : int list;  (** per training input *)
      ok_speedups : float list;
      ok_gmean : float;
      ok_verdict : string;
      ok_headroom : float;
      ok_diagnosis : string list;
      ok_stages : int;
          (** threads + RAs of the first input's pipeline, as Fig. 13
              counts them; not serialized *)
    }
  | Run_rejected of string
      (** illegal cuts, thread-fit failure, or result mismatch *)
  | Run_failed of string
      (** deadlock, livelock, exhausted op budget, or runtime error *)

type attempt = {
  t_id : int;
  t_parent : int;  (** attempt id this move expanded from; -1 for seeds *)
  t_move : move;
  t_config : config;
  t_digest : string;
  t_status : status;
  t_moves : move list;  (** directed moves generated from this attempt *)
}

type outcome = {
  o_best : config;
  o_best_cycles : int list;
  o_best_gmean : float;
  o_serial_cycles : int list;
  o_cut_only : (config * int list * float) option;
      (** best default-knob non-serial candidate: what cut-set-only PGO
          would have picked on the same training inputs *)
  o_simulated : int;
  o_deduped : int;  (** move targets skipped as already visited *)
  o_rejected : int;
  o_waves : int;
  o_exhaustive : float;  (** lower bound on the full space size *)
  o_trace : attempt list;  (** every attempt, in evaluation order *)
}

val cut_set_key : Costmodel.cut list -> string
(** Canonical hex digest of a cut set: insensitive to list order and to
    the float ranking score. Two sets share a key exactly when they
    decouple the program identically. *)

val config_digest : config -> string
(** Canonical hex content key: two configs collide exactly when they
    would simulate identically. *)

val enumerate_cut_sets :
  ?top_k:int -> ?max_cuts:int -> Phloem_ir.Types.pipeline -> Costmodel.cut list list
(** Wave 0's cut sets: non-empty subsets of the top-[top_k] ranked cuts
    with at most [max_cuts] members, in program order, deduplicated by
    {!cut_set_key}. *)

val moves :
  space -> config -> Pipette.Analysis.report -> (move * config) list
(** The directed move grammar: classify the report and propose successor
    configurations. Pure — unit tests feed synthetic reports and assert
    the exact move set. A [Balanced] verdict yields no moves. *)

val tune :
  ?flags:Decouple.flags ->
  ?top_k:int ->
  ?max_cuts:int ->
  ?beam:int ->
  ?budget:int ->
  ?max_replicas:int ->
  ?max_cores:int ->
  ?pool:Phloem_util.Pool.t ->
  ?metrics:Phloem_util.Metrics.t ->
  check_arrays:string list ->
  training:
    (Phloem_ir.Types.pipeline * (string * Phloem_ir.Types.value array) list)
    list ->
  unit ->
  outcome
(** Run the search. [beam] (default 4) bounds how many survivors each
    wave expands; [budget] (default 64) caps total simulations;
    [top_k]/[max_cuts] (defaults 6 and 3) shape the seed cut sets. The
    search runs on {!Pipette.Config.default}; queue capacities grow up to
    [8 * queue_depth], and a configuration with less than 5% estimated
    headroom counts as balanced. With the same
    arguments the outcome is byte-identical whether [pool] is absent,
    single-job, or many-job (the pool preserves submission order).
    [metrics] feeds search progress into a shared registry: per-eval
    latency (histogram [autotune_eval_s]), counters [autotune_evals] /
    [autotune_waves] / [autotune_rejected] / [autotune_deduped], and
    gauges [autotune_best_gmean] / [autotune_best_cycles] — observation
    only, never affects the outcome.

    Each training input compiles its own candidate from its own serial
    pipeline, which bakes in the input's sizes. A candidate's expected
    failures — illegal cuts, failed validation, a result that differs
    from serial on [check_arrays], an exhausted op budget, a runtime
    error, deadlock or livelock — are recorded in its attempt; any other
    exception propagates (from the lowest-index candidate under a pool).
    @raise Invalid_argument on empty training or a non-positive
    beam/budget. *)

val move_to_string : move -> string
val config_to_string : config -> string
val json_of_config : config -> Phloem_util.Json.t

val json_of_outcome : outcome -> Phloem_util.Json.t
(** Machine-readable best config + full search trace (per-attempt cycles,
    speedups, verdict, diagnosis, move provenance) plus the search
    counters, including [simulated] vs [exhaustive_lower_bound]. *)

val summary : outcome -> string
(** Human-readable digest: winner, PGO comparison, search counters, and
    the last few attempts. *)
