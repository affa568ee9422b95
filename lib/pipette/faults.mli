(** Deterministic fault injection for the timing engine.

    A fault {!plan} is a list of fault specifications plus a PRNG key; all
    probabilistic decisions are drawn from a splitmix64 stream keyed by the
    plan, so the same plan replayed on the same program and input injects
    the exact same faults at the exact same points — failures found under
    injection are reproducible bit-for-bit.

    Faults perturb timing, never functional values: a dropped queue op is a
    transient enqueue failure that is retried (and re-rolled) on the next
    issue attempt; a duplicated op leaves a phantom element occupying a
    queue slot; latency spikes stretch cache or RA service times; stalls
    and kills freeze a thread temporarily or permanently; predictor
    poisoning forces branches to resolve as mispredicted. Passing
    [?faults:None] to {!Engine.run} leaves every counter byte-identical to
    a build without this module. *)

type spec =
  | Queue_drop of { queue : int; prob : float }
      (** each enqueue into [queue] ([-1] = any queue) transiently fails
          with probability [prob] per issue attempt *)
  | Queue_dup of { queue : int; prob : float }
      (** each successful enqueue additionally deposits a phantom element
          (if the queue has room) with probability [prob]; the phantom is
          never consumed and permanently occupies a slot *)
  | Latency_spike of { level : int; extra : int; prob : float }
      (** accesses served by cache [level] (1–3 = L1..L3, 4 = DRAM,
          0 = reference-accelerator fetches) take [extra] additional cycles
          with probability [prob] *)
  | Thread_stall of { thread : int; period : int; duration : int }
      (** thread [thread] freezes (no dispatch, issue, or retire) for the
          first [duration] cycles of every [period]-cycle window *)
  | Thread_kill of { thread : int; after_retired : int }
      (** thread [thread] permanently freezes once it has retired
          [after_retired] ops; downstream consumers starve into a
          detectable deadlock *)
  | Predictor_poison of { prob : float }
      (** correctly predicted branches are forced to resolve as
          mispredicted with probability [prob] *)

type plan = { fp_key : int; fp_specs : spec list }

val plan : ?key:int -> spec list -> plan
(** [plan ?key specs] packs a fault plan; [key] defaults to 0. *)

val rekey : plan -> attempt:int -> plan
(** [rekey p ~attempt] derives the plan used for retry number [attempt]:
    same fault specs, an independent PRNG stream. [rekey p ~attempt:0] is
    [p] itself, so attempt numbers enumerate deterministic variations. *)

val of_string : string -> (plan, string) Result.t
(** Parse a comma-separated plan, e.g.
    ["drop@q0:0.01,spike@dram+400:0.05,stall@t1:1000x200,kill@t2:5000,poison:0.1"].
    Grammar per spec: [drop[@qN]:PROB], [dup[@qN]:PROB],
    [spike@l1|l2|l3|dram|ra+EXTRA:PROB], [stall@tN:PERIODxDURATION],
    [kill@tN:AFTER_RETIRED], [poison:PROB]. *)

val to_string : plan -> string
(** Round-trips through {!of_string}. *)

type counters = {
  mutable c_drops : int;  (** enqueue attempts transiently failed *)
  mutable c_dups : int;  (** phantom elements deposited *)
  mutable c_spikes : int;  (** latency spikes applied *)
  mutable c_stall_cycles : int;  (** simulated cycles spent force-stalled *)
  mutable c_kills : int;  (** threads permanently frozen *)
  mutable c_poisons : int;  (** branches forced to mispredict *)
}

type t
(** Runtime injection state: the plan, its PRNG stream, and counters.
    Create one per {!Engine.run} call; reusing a [t] across runs continues
    the stream and is not replay-deterministic. *)

val create : plan -> t
val counters : t -> counters
val total : t -> int
(** Total faults injected so far (sum of all counters). *)

val json_of_counters : t -> Phloem_util.Json.t

(** {2 Decision hooks} — called by the engine at injection points; each
    consumes PRNG draws only for specs present in the plan. *)

val drop_enq : t -> queue:int -> bool
val dup_enq : t -> queue:int -> bool
val spike : t -> level:int -> int
(** Extra latency to add for an access served at [level], or 0. *)

val stall_release : t -> thread:int -> now:int -> int
(** If [thread] is force-stalled at cycle [now], the first cycle it runs
    again; [-1] when not stalled. Counts the stalled cycle. *)

val should_kill : t -> thread:int -> retired:int -> bool
(** True exactly once, when [thread] crosses its kill threshold. *)

val poison : t -> bool
