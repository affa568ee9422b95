(** Phloem's top-level compilation entry points (paper Fig. 8).

    A "serial pipeline" below is a single-stage {!Phloem_ir.Types.pipeline},
    typically produced by {!Phloem_minic.Lower.to_serial_pipeline}. Both
    flows run the pass list from {!Passes.standard} through
    {!Pass.Manager}; the [_report] variants expose the manager's per-pass
    timing/op-count report and accept {!Pass.options} for per-pass
    verification ([verify_each]) and IR snapshots ([dump_ir]). *)

exception Unsupported of string
(** Raised when no legal decoupling exists (alias of {!Decouple.Reject}). *)

val candidates : Phloem_ir.Types.pipeline -> Costmodel.cut list
(** The cost model's ranked decoupling points for a serial kernel,
    best first. *)

val with_cuts :
  ?flags:Decouple.flags ->
  Phloem_ir.Types.pipeline ->
  Costmodel.cut list ->
  Phloem_ir.Types.pipeline
(** Compile with an explicit cut selection (the profile-guided search uses
    this); applies the pass gates in [flags], scan-chaining/cleanup, and
    validates the result against the architecture's queue/RA limits.
    @raise Unsupported if the cuts are illegal. *)

val with_cuts_report :
  ?flags:Decouple.flags ->
  ?options:Pass.options ->
  Phloem_ir.Types.pipeline ->
  Costmodel.cut list ->
  Phloem_ir.Types.pipeline * Pass.report
(** [with_cuts], also returning the pass manager's report.
    @raise Pass.Verify_failed if [options.verify_each] catches a malformed
    intermediate pipeline. *)

val static_flow :
  ?flags:Decouple.flags ->
  ?stages:int ->
  Phloem_ir.Types.pipeline ->
  Phloem_ir.Types.pipeline
(** The static compilation mode: greedily select up to [stages]-1 of the
    highest-ranked legal decoupling points and emit one pipeline.
    @raise Unsupported if no cut is legal. *)

val static_flow_report :
  ?flags:Decouple.flags ->
  ?options:Pass.options ->
  ?stages:int ->
  Phloem_ir.Types.pipeline ->
  Phloem_ir.Types.pipeline * Pass.report
(** [static_flow], also returning the pass manager's report for the winning
    cut selection (the greedy search itself runs uninstrumented). *)
