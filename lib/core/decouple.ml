(* The decoupler: turns a normalized serial body plus a set of cut points
   into a multi-stage pipeline. The paper factors this into passes
   (Fig. 5); here the transform is itself split into cohesive modules,
   sequenced by this driver so that every position-dependent decision
   stays consistent:

   - Stage_assign (phases A/B): stage assignment at the cuts and the shared
     analysis context (def positions, ancestors, induction vars, init
     replication, movable-initializer sinking).
   - Commplan (phase C, first half): uses/needs fixpoint, recompute
     (rematerialization, recompute gate), barriers between sibling loop
     nests, then — after the CV/DCE decisions — channel construction,
     reference-accelerator assignment (ra gate), and the control-value
     emission plan.
   - Cvdce (phase C, second half): control-value conversion of consumer
     loops (cv gate), upward merging of converted loops, exit-site
     reconciliation, and conditional elision (dce gate).
   - Emit (phase D): per-stage emission, with in-band control checks or
     control-value handlers (handlers gate).

   Scan-chaining and stage elision run afterwards as separate passes (see
   Chain and Passes). *)

(* Re-exports: the feature gates and the rejection exception live in Pass
   (so every pass module can use them without a dependency cycle), but
   callers historically reach them through Decouple. *)
type flags = Pass.flags = {
  f_recompute : bool;
  f_ra : bool;
  f_cv : bool;
  f_handlers : bool;
  f_dce : bool;
  f_chain : bool;
}

let all_passes = Pass.all_passes
let queues_only = Pass.queues_only

exception Reject = Pass.Reject

let reject = Pass.reject

(* Phase C: all per-stage decisions, in dependency order. Channel
   construction must follow the CV/DCE decisions because converted-loop
   bounds and elided-If conditions drop out of the consumer sets. *)
let decide ctx (cuts : Costmodel.cut list) : Commplan.decisions =
  let d = Commplan.create () in
  Commplan.analyze ctx d;
  Commplan.plan_recompute ctx d;
  Commplan.plan_barriers ctx d;
  Cvdce.convert_loops ctx d;
  Cvdce.merge_converted ctx d;
  Cvdce.reconcile_exit_sites ctx d;
  Cvdce.elide_conditionals ctx d;
  Commplan.build_channels ctx d cuts;
  Commplan.assign_ras ctx d;
  Commplan.plan_cv_emits ctx d;
  d

(* Decouple a serial pipeline at the given cuts. *)
let split ?(flags = all_passes) (serial : Phloem_ir.Types.pipeline)
    (cuts : Costmodel.cut list) : Phloem_ir.Types.pipeline =
  let body =
    match serial.Phloem_ir.Types.p_stages with
    | [ st ] -> st.Phloem_ir.Types.s_body
    | _ -> reject "split expects a single-stage (serial) pipeline"
  in
  let tree, n_keys = Ktree.of_body (Normalize.body body) in
  let params = List.map fst serial.Phloem_ir.Types.p_params in
  let ctx = Stage_assign.build_context ~flags ~params tree n_keys cuts in
  if ctx.Stage_assign.n_stages < 2 then reject "no cuts selected";
  let d = decide ctx cuts in
  Stage_assign.check_cursors ctx ~cond_stages:(Commplan.cond_stages d);
  Emit.emit ctx d ~orig:serial
