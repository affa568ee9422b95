(* Binding and execution of compile+simulate jobs. This is the shared
   substrate of `bin/simulate.exe` (local and --remote runs) and phloemd's
   workers: one place maps (bench, input, scale) names to bound
   workloads, picks the variant pipeline, runs serial baseline + variant,
   and serializes the result payload. Payload serialization is
   deterministic, which is what lets the daemon cache payload bytes. *)

open Phloem_workloads
module Json = Phloem_util.Json

exception Bad_job of string
(* unknown bench / input / variant: the job can never run, as opposed to a
   run-time pipeline failure *)

let graph_names () =
  List.map (fun i -> i.Phloem_graph.Inputs.name) (Phloem_graph.Inputs.all ())

let matrix_names () =
  List.map (fun i -> i.Phloem_sparse.Inputs.name) (Phloem_sparse.Inputs.all ())

let bind ~bench ~input ~scale : Workload.bound =
  match bench with
  | "bfs" | "cc" | "prd" | "radii" ->
    if not (List.mem input (graph_names ())) then
      raise (Bad_job (Printf.sprintf "unknown graph %s" input));
    let g =
      Lazy.force (Phloem_graph.Inputs.find ~scale input).Phloem_graph.Inputs.graph
    in
    (match bench with
    | "bfs" -> Bfs.bind g
    | "cc" -> Cc.bind g
    | "prd" -> Prd.bind g
    | _ -> Radii.bind g)
  | "spmm" ->
    if not (List.mem input (matrix_names ())) then
      raise (Bad_job (Printf.sprintf "unknown matrix %s" input));
    let m =
      Lazy.force
        (Phloem_sparse.Inputs.find ~scale:(0.12 *. scale) input)
          .Phloem_sparse.Inputs.matrix
    in
    Spmm.bind m (Phloem_sparse.Csr_matrix.transpose m)
  | "spmv" | "residual" | "mtmul" | "sddmm" ->
    if not (List.mem input (matrix_names ())) then
      raise (Bad_job (Printf.sprintf "unknown matrix %s" input));
    let m =
      Lazy.force
        (Phloem_sparse.Inputs.find ~scale:(0.35 *. scale) input)
          .Phloem_sparse.Inputs.matrix
    in
    let kind =
      match bench with
      | "spmv" -> Taco_kernels.Spmv
      | "residual" -> Taco_kernels.Residual
      | "mtmul" -> Taco_kernels.Mtmul
      | _ -> Taco_kernels.Sddmm
    in
    Taco_kernels.bind kind m
  | other -> raise (Bad_job (Printf.sprintf "unknown benchmark %s" other))

let variant_pipeline (b : Workload.bound) ~variant ~stages ~threads =
  let serial_p, serial_in = b.Workload.b_serial in
  match variant with
  | "serial" -> (serial_p, serial_in)
  | "phloem" -> (Phloem.Compile.static_flow ~stages serial_p, serial_in)
  | "data-parallel" -> b.Workload.b_data_parallel ~threads
  | "manual" -> (
    match b.Workload.b_manual with
    | Some mp -> mp
    | None -> raise (Bad_job "no manual pipeline for this benchmark"))
  | other -> raise (Bad_job (Printf.sprintf "unknown variant %s" other))

(* Empty traces report 0 cycles; keep the derived ratios finite. *)
let fdiv a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let payload_json ~(job : Protocol.job) ~valid ~serial_cycles ~faults
    (r : Pipette.Sim.run) : Json.t =
  let t = r.Pipette.Sim.sr_timing in
  let meta =
    [
      ("bench", Json.Str job.Protocol.j_bench);
      ("variant", Json.Str job.Protocol.j_variant);
      ("input", Json.Str job.Protocol.j_input);
      ("scale", Json.Float job.Protocol.j_scale);
      ("valid", Json.Bool valid);
      ("serial_cycles", Json.Int serial_cycles);
      ("speedup", Json.Float (fdiv serial_cycles t.Pipette.Engine.cycles));
    ]
  in
  let core =
    match Pipette.Sim.json_of_run r with
    | Json.Obj fields -> fields
    | j -> [ ("run", j) ]
  in
  let flt =
    match faults with
    | Some f -> [ ("faults", Pipette.Faults.json_of_counters f) ]
    | None -> []
  in
  Json.Obj (meta @ core @ flt)

(* Execute one job to its serialized payload bytes. With [obs], each phase
   becomes a span on the executing worker's track, nested in an "execute"
   span: compile, trace, simulate, then serialize. A cache-served request
   never reaches this function, so a hit records no such span; without
   [obs] no clock is read.
   @raise Bad_job on unknown bench/input/variant
   @raise Phloem_ir.Forensics.Pipeline_failure on deadlock/livelock/budget *)
let run ?obs ?(trace = 0) (job : Protocol.job) : string =
  let track =
    lazy (Printf.sprintf "worker-%d" (Domain.self () :> int))
  in
  let span name f =
    match obs with
    | None -> f ()
    | Some o -> Obs.span o ~trace ~track:(Lazy.force track) ~name f
  in
  span "execute" @@ fun () ->
  let b = bind ~bench:job.Protocol.j_bench ~input:job.Protocol.j_input
      ~scale:job.Protocol.j_scale
  in
  let serial_p, serial_in = b.Workload.b_serial in
  let p, inputs =
    variant_pipeline b ~variant:job.Protocol.j_variant
      ~stages:job.Protocol.j_stages ~threads:job.Protocol.j_threads
  in
  let faults = Option.map Pipette.Faults.create job.Protocol.j_inject in
  span "compile" (fun () ->
      ignore (Pipette.Sim.prepare serial_p);
      ignore (Pipette.Sim.prepare p));
  let serial_fr =
    span "trace" (fun () -> Pipette.Sim.functional ~inputs:serial_in serial_p)
  in
  let fr = span "trace" (fun () -> Pipette.Sim.functional ~inputs p) in
  let sr = span "simulate" (fun () -> Pipette.Sim.simulate serial_p serial_fr) in
  let r =
    span "simulate" (fun () ->
        Pipette.Sim.simulate ?faults ?watchdog:job.Protocol.j_watchdog
          ?cycle_budget:job.Protocol.j_cycle_budget p fr)
  in
  let valid = Workload.check b r.Pipette.Sim.sr_functional in
  span "serialize" @@ fun () ->
  Json.to_string
    (payload_json ~job ~valid ~serial_cycles:(Pipette.Sim.cycles sr) ~faults r)
