(* Phloem's top-level compilation entry points.

   [static_flow] implements the static compilation mode (paper Fig. 8,
   upper right): pick the (n-1) highest-ranked decoupling points with the
   cost model and emit one pipeline. [with_cuts] compiles an explicit cut
   selection (used by Autotune, whose seed wave is the profile-guided
   search). Both are thin wrappers over [Pass.Manager] running the
   pass list from [Passes.standard]; the [_report] variants
   expose the manager's per-pass timing/op-count report and accept
   [Pass.options] for per-pass verification and IR snapshots. *)

open Phloem_ir.Types

exception Unsupported = Decouple.Reject

let candidates (serial : pipeline) : Costmodel.cut list =
  match serial.p_stages with
  | [ st ] ->
    let tree, _ = Ktree.of_body (Normalize.body st.s_body) in
    Costmodel.candidates tree
  | _ -> invalid_arg "Compile.candidates: expected serial pipeline"

let with_cuts_report ?(flags = Decouple.all_passes) ?(options = Pass.default_options)
    (serial : pipeline) (cuts : Costmodel.cut list) : pipeline * Pass.report =
  let manager = Pass.Manager.create ~options (Passes.standard ~flags) in
  Pass.Manager.run manager { Pass.flags; cuts } serial

let with_cuts ?flags (serial : pipeline) (cuts : Costmodel.cut list) : pipeline =
  fst (with_cuts_report ?flags serial cuts)

(* Static mode: an n-stage pipeline from the top-ranked cost-model cuts.
   Cuts that make decoupling illegal (e.g. they would split a merge loop's
   induction updates across stages) are skipped greedily, in rank order.
   The greedy search compiles without instrumentation; the winning cut set
   is recompiled once under the caller's [options] for the report. *)
let static_flow_report ?(flags = Decouple.all_passes) ?(options = Pass.default_options)
    ?(stages = 4) (serial : pipeline) : pipeline * Pass.report =
  match serial.p_stages with
  | [ st ] ->
    let tree, _ = Ktree.of_body (Normalize.body st.s_body) in
    let ranked = Costmodel.candidates tree in
    let in_order cuts =
      List.sort
        (fun (a : Costmodel.cut) b -> compare (List.hd a.cut_loads) (List.hd b.cut_loads))
        cuts
    in
    let try_compile cuts =
      match with_cuts ~flags serial (in_order cuts) with
      | _ -> true
      | exception Decouple.Reject _ -> false
      | exception Phloem_ir.Validate.Invalid _ -> false
    in
    let rec greedy chosen = function
      | [] -> chosen
      | c :: rest ->
        if List.length chosen >= stages - 1 then chosen
        else if try_compile (c :: chosen) then greedy (c :: chosen) rest
        else greedy chosen rest
    in
    (match greedy [] ranked with
    | [] -> Decouple.reject "no legal decoupling found"
    | chosen -> with_cuts_report ~flags ~options serial (in_order chosen))
  | _ -> invalid_arg "Compile.static_flow: expected serial pipeline"

let static_flow ?flags ?stages (serial : pipeline) : pipeline =
  fst (static_flow_report ?flags ?stages serial)
