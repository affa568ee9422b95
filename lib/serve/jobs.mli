(** Shared binding and execution of compile+simulate jobs: the substrate
    under both `bin/simulate.exe` and phloemd's workers. *)

exception Bad_job of string
(** Unknown benchmark / input / variant: the job can never run (as opposed
    to a run-time pipeline failure, which raises
    {!Phloem_ir.Forensics.Pipeline_failure}). *)

val bind :
  bench:string -> input:string -> scale:float -> Phloem_workloads.Workload.bound
(** Bind a named benchmark to its named generated input at [scale].
    @raise Bad_job on unknown names. *)

val variant_pipeline :
  Phloem_workloads.Workload.bound ->
  variant:string ->
  stages:int ->
  threads:int ->
  Phloem_ir.Types.pipeline * Phloem_workloads.Workload.inputs
(** Select the serial / phloem / data-parallel / manual pipeline of a bound
    workload. @raise Bad_job on an unknown or unavailable variant. *)

val payload_json :
  job:Protocol.job ->
  valid:bool ->
  serial_cycles:int ->
  faults:Pipette.Faults.t option ->
  Pipette.Sim.run ->
  Phloem_util.Json.t
(** The result payload of a finished job: its bench, variant, input and
    scale, [valid], [serial_cycles] and the speedup over them, then the
    fields of {!Pipette.Sim.json_of_run}, then the injected-fault counters
    when [faults] is given. *)

val run : ?obs:Obs.t -> ?trace:int -> Protocol.job -> string
(** Execute one job — serial baseline plus requested variant, faults
    injected into the variant only — and serialize the result payload.
    Serialization is deterministic: identical jobs yield identical bytes,
    which is what the daemon's content-addressed cache relies on. With
    [obs], each phase ([compile], [trace], [simulate], [serialize]) is
    recorded as a span under request id [trace] on the executing worker's
    track, nested in an ["execute"] span; without it no clock is read.
    @raise Bad_job on unknown names
    @raise Phloem_ir.Forensics.Pipeline_failure on deadlock/livelock/budget *)
