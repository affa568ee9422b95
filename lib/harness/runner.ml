(* Runs one workload binding through all evaluated systems (paper Sec. VI):
   Serial, Data-parallel, Phloem (static or profile-guided), and the
   manually pipelined version; collects cycles, cycle breakdowns, and
   energy, and validates every run against the pure-OCaml reference. *)

open Phloem_workloads
module Log = Phloem_util.Log

type measurement = {
  m_variant : string;
  m_cycles : int;
  m_instrs : int;
  m_speedup : float; (* over the serial run on the same input *)
  m_ok : bool;
  m_issue : float; (* thread-cycles, normalized to serial cycles *)
  m_backend : float;
  m_queue : float;
  m_other : float;
  m_energy : Pipette.Energy.breakdown;
  m_stages : int; (* threads + RAs *)
}

let of_run ~variant ~serial_cycles ~ok (r : Pipette.Sim.run) =
  let t = r.Pipette.Sim.sr_timing in
  (* A degenerate baseline (serial_cycles = 0, e.g. an empty kernel) must
     not poison the derived fields with inf/nan: report neutral values. *)
  let sc = float_of_int serial_cycles in
  let over_sc x = if serial_cycles = 0 then 0.0 else float_of_int x /. sc in
  {
    m_variant = variant;
    m_cycles = t.Pipette.Engine.cycles;
    m_instrs = t.Pipette.Engine.instrs;
    m_speedup =
      (if serial_cycles = 0 || t.Pipette.Engine.cycles = 0 then 1.0
       else sc /. float_of_int t.Pipette.Engine.cycles);
    m_ok = ok;
    m_issue = over_sc t.Pipette.Engine.issue_cycles;
    m_backend = over_sc t.Pipette.Engine.backend_cycles;
    m_queue = over_sc t.Pipette.Engine.queue_cycles;
    m_other = over_sc t.Pipette.Engine.other_cycles;
    m_energy = r.Pipette.Sim.sr_energy;
    m_stages =
      t.Pipette.Engine.n_threads
      + Array.length r.Pipette.Sim.sr_functional.Phloem_ir.Interp.r_trace.Phloem_ir.Trace.ras;
  }

(* Machine-readable form of a measurement, for --json reports and CI. *)
let json_of_measurement (m : measurement) : Phloem_util.Json.t =
  let open Phloem_util.Json in
  let e = m.m_energy in
  Obj
    [
      ("variant", Str m.m_variant);
      ("cycles", Int m.m_cycles);
      ("instrs", Int m.m_instrs);
      ("speedup", Float m.m_speedup);
      ("valid", Bool m.m_ok);
      ("stages", Int m.m_stages);
      ( "breakdown_vs_serial",
        Obj
          [
            ("issue", Float m.m_issue);
            ("backend", Float m.m_backend);
            ("queue", Float m.m_queue);
            ("other", Float m.m_other);
          ] );
      ( "energy_nj",
        Obj
          [
            ("core_dynamic", Float e.Pipette.Energy.e_core_dynamic);
            ("memory", Float e.Pipette.Energy.e_memory);
            ("queues_ras", Float e.Pipette.Energy.e_queues_ras);
            ("static", Float e.Pipette.Energy.e_static);
            ("total", Float (Pipette.Energy.total e));
          ] );
    ]

(* The ways a compiled or simulated variant is expected to fail, the
   kinds Autotune.eval records. Every harness handler catches only these,
   so anything else (a bug) propagates. *)
let expected_failure = function
  | Phloem.Decouple.Reject _ | Phloem_ir.Validate.Invalid _
  | Phloem_ir.Forensics.Pipeline_failure _ | Phloem_ir.Interp.Budget_exceeded
  | Phloem_ir.Interp.Runtime_error _ ->
    true
  | _ -> false

(* One recorded per-variant failure. [f_kind] is the Forensics kind name
   for structured pipeline failures ("deadlock" / "livelock" /
   "budget-exhausted") and "exception" for the other expected failures
   (compile rejects, invalid IR, op budget, runtime errors); [f_message] is
   the full rendered forensics report in the structured case. *)
type failure = {
  f_variant : string;
  f_kind : string;
  f_message : string;
  f_backtrace : string;
}

let failure_of ~variant e bt =
  let kind, message =
    match e with
    | Phloem_ir.Forensics.Pipeline_failure r ->
      (Phloem_ir.Forensics.kind_name r.Phloem_ir.Forensics.fr_kind,
       Phloem_ir.Forensics.render r)
    | e -> ("exception", Printexc.to_string e)
  in
  {
    f_variant = variant;
    f_kind = kind;
    f_message = message;
    f_backtrace = Printexc.raw_backtrace_to_string bt;
  }

let json_of_failure (f : failure) : Phloem_util.Json.t =
  let open Phloem_util.Json in
  Obj
    [
      ("variant", Str f.f_variant);
      ("kind", Str f.f_kind);
      ("message", Str f.f_message);
      ("backtrace", Str f.f_backtrace);
    ]

(* Run one variant; an expected failure becomes an [Error failure] record
   instead of an exception. Compilation and the functional trace are
   memoized in [Sim], so every config of the same (pipeline, input) pair
   in the sweep pays only for the timing replay. *)
let run_one (b : Workload.bound) ~variant (p, inputs) ~serial_cycles :
    (measurement, failure) result =
  match Pipette.Sim.run ~inputs p with
  | exception e when expected_failure e ->
    let bt = Printexc.get_raw_backtrace () in
    Log.warn ~component:"runner" "%s/%s failed: %s" b.Workload.b_name variant
      (Printexc.to_string e);
    Error (failure_of ~variant e bt)
  | r ->
    let ok = Workload.check b r.Pipette.Sim.sr_functional in
    if not ok then
      Log.warn ~component:"runner" "%s/%s: result does not match the reference"
        b.Workload.b_name variant;
    let m = of_run ~variant ~serial_cycles ~ok r in
    Log.debug ~component:"runner" "%s/%s: %d cycles, speedup %.2f" b.Workload.b_name
      variant m.m_cycles m.m_speedup;
    Ok m

(* The Phloem pipeline for a bound: static cost model or a provided PGO cut
   recipe (cut recipes transfer across inputs of the same kernel). *)
let phloem_pipeline ?(stages = 4) ?cuts (b : Workload.bound) =
  let serial_p = fst b.Workload.b_serial in
  match cuts with
  | Some [] -> serial_p (* PGO's serial fallback: an empty recipe *)
  | Some cuts -> Phloem.Compile.with_cuts serial_p cuts
  | None -> Phloem.Compile.static_flow ~stages serial_p

(* Every non-serial variant is optional: a failed cell leaves [None] plus a
   [failures] record instead of aborting the sweep. The serial baseline is
   the exception — without it nothing downstream (speedups, normalized
   breakdowns) is defined, so a serial failure propagates to the caller. *)
type all_runs = {
  serial : measurement;
  data_parallel : measurement option;
  phloem_static : measurement option;
  phloem_pgo : measurement option;
  manual : measurement option;
  failures : failure list; (* in variant order: dp, static, pgo, manual *)
}

let json_of_all_runs (a : all_runs) : Phloem_util.Json.t =
  let open Phloem_util.Json in
  let opt = function Some m -> json_of_measurement m | None -> Null in
  Obj
    [
      ("serial", json_of_measurement a.serial);
      ("data_parallel", opt a.data_parallel);
      ("phloem_static", opt a.phloem_static);
      ("phloem_pgo", opt a.phloem_pgo);
      ("manual", opt a.manual);
      ("errors", List (List.map json_of_failure a.failures));
    ]

let run_all ?pgo_cuts ?pool (b : Workload.bound) : all_runs =
  let serial_p, serial_in = b.Workload.b_serial in
  let sr = Pipette.Sim.run ~inputs:serial_in serial_p in
  let serial_cycles = Pipette.Sim.cycles sr in
  let serial_m =
    of_run ~variant:"serial" ~serial_cycles
      ~ok:(Workload.check b sr.Pipette.Sim.sr_functional)
      sr
  in
  (* Given the serial baseline, the remaining variants (including their
     compilation) are independent jobs: fan them out over the pool. The
     thunk order fixes the result order, so pooled and serial runs build
     the same record. Each thunk catches its own expected failures
     (compilation included), so one bad cell never aborts the batch. *)
  let guarded variant (f : unit -> (measurement, failure) result option) () :
      measurement option * failure option =
    match f () with
    | None -> (None, None)
    | Some (Ok m) -> (Some m, None)
    | Some (Error fl) -> (None, Some fl)
    | exception e when expected_failure e ->
      let bt = Printexc.get_raw_backtrace () in
      Log.warn ~component:"runner" "%s/%s failed: %s" b.Workload.b_name variant
        (Printexc.to_string e);
      (None, Some (failure_of ~variant e bt))
  in
  let variant_thunks : (unit -> measurement option * failure option) list =
    [
      guarded "data-parallel" (fun () ->
          Some
            (run_one b ~variant:"data-parallel"
               (b.Workload.b_data_parallel ~threads:4)
               ~serial_cycles));
      guarded "phloem-static" (fun () ->
          Some
            (run_one b ~variant:"phloem-static"
               (phloem_pipeline b, serial_in)
               ~serial_cycles));
      guarded "phloem-pgo" (fun () ->
          Option.map
            (fun cuts ->
              run_one b ~variant:"phloem-pgo"
                (phloem_pipeline ~cuts b, serial_in)
                ~serial_cycles)
            pgo_cuts);
      guarded "manual" (fun () ->
          Option.map
            (fun mp ->
              run_one b ~variant:"manual" mp ~serial_cycles)
            b.Workload.b_manual);
    ]
  in
  let results =
    match pool with
    | Some p -> Phloem_util.Pool.run p variant_thunks
    | None -> List.map (fun f -> f ()) variant_thunks
  in
  match results with
  | [ (dp, e1); (ps, e2); (pp, e3); (man, e4) ] ->
    {
      serial = serial_m;
      data_parallel = dp;
      phloem_static = ps;
      phloem_pgo = pp;
      manual = man;
      failures = List.filter_map Fun.id [ e1; e2; e3; e4 ];
    }
  | _ -> assert false

(* Profile-guided search across a benchmark's training bindings (paper
   Sec. V, Fig. 8): Autotune's seed wave alone — the serial configuration
   plus every enumerated cut set, each profiled on every training input.
   Returns the recipe, the best surviving cut set ([] = run serial), with
   the outcome, whose trace holds every profiled candidate (Fig. 13). *)
let pgo_cuts ?(top_k = 6) ?(max_cuts = 3) ?pool
    (training : Workload.bound list) :
    Phloem.Costmodel.cut list * Phloem.Autotune.outcome =
  match training with
  | [] -> invalid_arg "pgo_cuts: no training bounds"
  | b0 :: _ ->
    let module A = Phloem.Autotune in
    let cut_sets =
      A.enumerate_cut_sets ~top_k ~max_cuts (fst b0.Workload.b_serial)
    in
    let o =
      A.tune ~top_k ~max_cuts ~budget:(1 + List.length cut_sets) ?pool
        ~check_arrays:b0.Workload.b_check_arrays
        ~training:(List.map (fun b -> b.Workload.b_serial) training)
        ()
    in
    (match o.A.o_cut_only with
    | Some (c, _, _) -> (c.A.at_cuts, o)
    | None ->
      (* degrade to the serial (no-cut) recipe instead of aborting the
         whole sweep *)
      Log.warn ~component:"search"
        "pgo: no legal candidate pipelines among %d cut sets; falling back \
         to the serial (no-cut) configuration"
        (List.length cut_sets);
      ([], o))
