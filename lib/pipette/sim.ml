(* One-call façade: validate a pipeline, run its functional semantics, then
   replay the trace on the timing model. This is the path every benchmark,
   example, and experiment goes through. *)

open Phloem_ir
module Fifo_cache = Phloem_util.Fifo_cache
module Key = Phloem_util.Key

type run = {
  sr_functional : Interp.result;
  sr_timing : Engine.result;
  sr_energy : Energy.breakdown;
}

let cycles r = r.sr_timing.Engine.cycles
let instrs r = r.sr_timing.Engine.instrs

(* Derive a sensible RA-to-core placement: an RA lives next to the core of
   the stage that consumes its output (chains follow the final consumer). *)
let ra_cores (p : Types.pipeline) (thread_core : int array) =
  let _, _, consumers = Forensics.queue_users p in
  let n_stages = List.length p.Types.p_stages in
  let ras = Array.of_list p.Types.p_ras in
  let rec core_for_out out_q depth =
    if depth > 8 then 0
    else
      let stages, ra_agents = List.partition (fun a -> a < n_stages) consumers.(out_q) in
      match (stages, ra_agents) with
      | _ :: _, _ -> thread_core.(List.fold_left min max_int stages)
      | [], _ :: _ ->
        let r = ras.(List.fold_left min max_int ra_agents - n_stages) in
        core_for_out r.Types.ra_out (depth + 1)
      | [], [] -> 0
  in
  Array.map (fun (r : Types.ra_config) -> core_for_out r.Types.ra_out 0) ras

(* --- compilation and trace memoization ------------------------------- *)

(* A sweep simulates the same (pipeline, input) pair under many timing
   configurations. The pipeline text and the functional execution are
   config-independent, so both are memoized: flat µop programs keyed by the
   pipeline, functional results keyed by (pipeline, inputs, op budget).
   The caches are FIFO-bounded and mutex-guarded; the mutex also provides
   the happens-before edge that publishes a result built on one domain to
   pool workers on another. Each key is built once at a time: a domain
   that misses a key another domain is building waits for that build.
   Nothing writes a trace once [Flat.run] has returned, so concurrent
   engine replays only ever read it. *)

let program_cache : (string, Phloem_ir.Flat.program array) Fifo_cache.t =
  Fifo_cache.create ~capacity:64 ()

(* Weighed by the bytes of the sealed trace, which dominate a cached
   functional result. *)
let trace_cache : (string, Interp.result) Fifo_cache.t =
  Fifo_cache.create ~weight:(fun r -> Trace.bytes r.Interp.r_trace) ~capacity:64 ()

let set_cache_capacity n =
  if n < 1 then invalid_arg "Sim.set_cache_capacity: capacity must be >= 1";
  Fifo_cache.set_capacity program_cache n;
  Fifo_cache.set_capacity trace_cache n

let clear_caches () =
  Fifo_cache.clear program_cache;
  Fifo_cache.clear trace_cache

type cache_counters = {
  cc_program_hits : int;
  cc_program_misses : int;
  cc_program_evictions : int;
  cc_program_entries : int;
  cc_trace_hits : int;
  cc_trace_misses : int;
  cc_trace_evictions : int;
  cc_trace_entries : int;
  cc_trace_bytes : int;
  cc_capacity : int;
}

let cache_counters () =
  let p = Fifo_cache.stats program_cache and t = Fifo_cache.stats trace_cache in
  {
    cc_program_hits = p.Fifo_cache.hits;
    cc_program_misses = p.Fifo_cache.misses;
    cc_program_evictions = p.Fifo_cache.evictions;
    cc_program_entries = p.Fifo_cache.entries;
    cc_trace_hits = t.Fifo_cache.hits;
    cc_trace_misses = t.Fifo_cache.misses;
    cc_trace_evictions = t.Fifo_cache.evictions;
    cc_trace_entries = t.Fifo_cache.entries;
    cc_trace_bytes = t.Fifo_cache.weight;
    cc_capacity = p.Fifo_cache.capacity;
  }

let prepare (p : Types.pipeline) : Phloem_ir.Flat.program array =
  Validate.check p;
  Fifo_cache.find_or_add program_cache (Key.of_value p) (fun () ->
      Phloem_ir.Flat.compile p)

let functional ?(inputs = []) (p : Types.pipeline) : Interp.result =
  let programs = prepare p in
  (* The op budget changes which executions complete, so it is part of the
     key; failed runs raise before the insert and are never cached. *)
  Fifo_cache.find_or_add trace_cache
    (Key.of_value (p, inputs, Interp.max_ops ()))
    (fun () -> Phloem_ir.Flat.run ~inputs ~programs p)

let simulate ?(cfg = Config.default) ?thread_core ?queue_caps ?telemetry
    ?faults ?watchdog ?cycle_budget (p : Types.pipeline) (fr : Interp.result) :
    run =
  let tc =
    match thread_core with
    | Some tc -> tc
    | None -> Engine.default_thread_core cfg (List.length p.Types.p_stages)
  in
  let timing =
    Engine.run ~cfg ~thread_core:tc ~ra_core:(ra_cores p tc) ?queue_caps
      ?telemetry ?faults ?watchdog ?cycle_budget p fr.Interp.r_trace
  in
  { sr_functional = fr; sr_timing = timing; sr_energy = Energy.of_result timing }

let run ?cfg ?thread_core ?(inputs = []) ?telemetry ?faults ?watchdog
    ?cycle_budget (p : Types.pipeline) : run =
  let fr = functional ~inputs p in
  simulate ?cfg ?thread_core ?telemetry ?faults ?watchdog ?cycle_budget p fr

(* Reference path: the tree-walking interpreter, no caches. Exists so
   differential tests (and doubting users) can confirm the compiled core
   is observationally identical. *)
let run_tree ?cfg ?thread_core ?(inputs = []) ?telemetry ?faults ?watchdog
    ?cycle_budget (p : Types.pipeline) : run =
  Validate.check p;
  let fr = Interp.run ~inputs p in
  simulate ?cfg ?thread_core ?telemetry ?faults ?watchdog ?cycle_budget p fr

let stage_names (p : Types.pipeline) =
  Array.of_list (List.map (fun (s : Types.stage) -> s.Types.s_name) p.Types.p_stages)

let analyze ?stage_names r = Analysis.of_result ?stage_names r.sr_timing

(* Machine-readable report of one run's aggregate counters. The numbers here
   must equal the plain-text report printed by the CLI tools: both read the
   same [Engine.result] fields. *)
let json_of_run (r : run) : Phloem_util.Json.t =
  let open Phloem_util.Json in
  let t = r.sr_timing and e = r.sr_energy in
  let c = t.Engine.cache in
  let fdiv a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  Obj
    [
      ("cycles", Int t.Engine.cycles);
      ("instrs", Int t.Engine.instrs);
      ("ipc", Float (fdiv t.Engine.instrs t.Engine.cycles));
      ("n_threads", Int t.Engine.n_threads);
      ("n_cores_used", Int t.Engine.n_cores_used);
      ( "breakdown",
        Obj
          [
            ("issue_cycles", Int t.Engine.issue_cycles);
            ("backend_cycles", Int t.Engine.backend_cycles);
            ("queue_cycles", Int t.Engine.queue_cycles);
            ("other_cycles", Int t.Engine.other_cycles);
          ] );
      ( "cache",
        Obj
          [
            ("l1_hits", Int c.Cache.c_l1_hits);
            ("l1_misses", Int c.Cache.c_l1_misses);
            ("l2_hits", Int c.Cache.c_l2_hits);
            ("l2_misses", Int c.Cache.c_l2_misses);
            ("l3_hits", Int c.Cache.c_l3_hits);
            ("l3_misses", Int c.Cache.c_l3_misses);
            ("dram_accesses", Int c.Cache.c_dram);
            ("prefetches", Int c.Cache.c_prefetches);
            ("prefetch_hits", Int c.Cache.c_prefetch_hits);
            ("prefetch_dram", Int c.Cache.c_prefetch_dram);
          ] );
      ( "branches",
        Obj
          [
            ("lookups", Int t.Engine.branch_lookups);
            ("mispredicts", Int t.Engine.branch_mispredicts);
          ] );
      ("queue_ops", Int t.Engine.queue_ops);
      ("ra_fetches", Int t.Engine.ra_fetches);
      ( "energy_nj",
        Obj
          [
            ("core_dynamic", Float e.Energy.e_core_dynamic);
            ("memory", Float e.Energy.e_memory);
            ("queues_ras", Float e.Energy.e_queues_ras);
            ("static", Float e.Energy.e_static);
            ("total", Float (Energy.total e));
          ] );
    ]
