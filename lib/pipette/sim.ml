(* One-call façade: validate a pipeline, run its functional semantics, then
   replay the trace on the timing model. This is the path every benchmark,
   example, and experiment goes through. *)

open Phloem_ir

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
  let stage_deqs =
    List.mapi
      (fun i (s : Types.stage) ->
        let qs = ref [] in
        let rec scan_expr (e : Types.expr) =
          match e with
          | Types.Deq q -> qs := q :: !qs
          | Types.Const _ | Types.Var _ -> ()
          | Types.Binop (_, a, b) ->
            scan_expr a;
            scan_expr b
          | Types.Unop (_, a) | Types.Is_control a | Types.Ctrl_payload a -> scan_expr a
          | Types.Load (_, i) -> scan_expr i
          | Types.Call (_, args) -> List.iter scan_expr args
        in
        let rec scan_stmt (s : Types.stmt) =
          match s with
          | Types.Assign (_, e) -> scan_expr e
          | Types.Store (_, a, b)
          | Types.Atomic_min (_, a, b)
          | Types.Atomic_add (_, a, b) ->
            scan_expr a;
            scan_expr b
          | Types.Prefetch (_, a) -> scan_expr a
          | Types.Enq (_, e) -> scan_expr e
          | Types.Enq_ctrl _ -> ()
          | Types.Enq_indexed (_, a, b) ->
            scan_expr a;
            scan_expr b
          | Types.If (_, c, t, f) ->
            scan_expr c;
            List.iter scan_stmt t;
            List.iter scan_stmt f
          | Types.While (_, c, b) ->
            scan_expr c;
            List.iter scan_stmt b
          | Types.For (_, _, lo, hi, b) ->
            scan_expr lo;
            scan_expr hi;
            List.iter scan_stmt b
          | Types.Break | Types.Exit_loops _ | Types.Barrier _ | Types.Seq_marker _ -> ()
        in
        List.iter scan_stmt s.Types.s_body;
        List.iter (fun (h : Types.handler) -> List.iter scan_stmt h.Types.h_body) s.Types.s_handlers;
        (i, !qs))
      p.Types.p_stages
  in
  let consumer_core q =
    let rec find = function
      | [] -> None
      | (i, qs) :: rest -> if List.mem q qs then Some thread_core.(i) else find rest
    in
    find stage_deqs
  in
  let ras = Array.of_list p.Types.p_ras in
  (* An RA chain's final consumer: follow ra_out through other RAs. *)
  let rec core_for_out out_q depth =
    if depth > 8 then 0
    else
      match consumer_core out_q with
      | Some c -> c
      | None -> (
        match
          Array.to_list ras
          |> List.find_opt (fun (r : Types.ra_config) -> r.Types.ra_in = out_q)
        with
        | Some r -> core_for_out r.Types.ra_out (depth + 1)
        | None -> 0)
  in
  Array.map (fun (r : Types.ra_config) -> core_for_out r.Types.ra_out 0) ras

(* --- compilation and trace memoization ------------------------------- *)

(* A sweep simulates the same (pipeline, input) pair under many timing
   configurations. The pipeline text and the functional execution are
   config-independent, so both are memoized: flat µop programs keyed by the
   pipeline digest, functional results keyed by (pipeline, inputs, op
   budget). Caches are FIFO-bounded and mutex-guarded; the mutex also
   provides the happens-before edge that publishes a result built on one
   domain to pool workers on another. Traces are column-packed before
   publication so concurrent engine replays only ever read them. Set
   PHLOEM_TRACE_CACHE=0 to disable (every run then recompiles/re-executes,
   as the tree path always did). *)

(* The environment variable is only the *initial* value: a long-lived
   process (phloemd) must be able to toggle caching at runtime, so the
   flag is mutable state, not a module-init constant. *)
let cache_enabled_flag =
  Atomic.make
    (match Sys.getenv_opt "PHLOEM_TRACE_CACHE" with
    | Some ("0" | "false" | "off") -> false
    | _ -> true)

let cache_enabled () = Atomic.get cache_enabled_flag
let set_cache_enabled b = Atomic.set cache_enabled_flag b

let cache_cap = ref 64
let cache_lock = Mutex.create ()

let program_cache : (string, Phloem_ir.Flat.program array) Hashtbl.t =
  Hashtbl.create 16

let program_order : string Queue.t = Queue.create ()
let trace_cache : (string, Interp.result) Hashtbl.t = Hashtbl.create 16
let trace_order : string Queue.t = Queue.create ()
let trace_hits = Atomic.make 0
let trace_misses = Atomic.make 0
let trace_evictions = Atomic.make 0
let program_hits = Atomic.make 0
let program_misses = Atomic.make 0
let program_evictions = Atomic.make 0

let with_lock f =
  Mutex.lock cache_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock cache_lock) f

let cache_find tbl key = with_lock (fun () -> Hashtbl.find_opt tbl key)

let cache_add tbl order evictions key v =
  with_lock (fun () ->
      if not (Hashtbl.mem tbl key) then begin
        while Queue.length order >= !cache_cap do
          Hashtbl.remove tbl (Queue.pop order);
          Atomic.incr evictions
        done;
        Queue.push key order;
        Hashtbl.add tbl key v
      end)

let set_cache_capacity n =
  if n < 1 then invalid_arg "Sim.set_cache_capacity: capacity must be >= 1";
  with_lock (fun () ->
      cache_cap := n;
      (* Shrinking evicts down to the new bound immediately, oldest first,
         so the bound is an invariant and not just an insert-time check. *)
      let trim tbl order evictions =
        while Queue.length order > n do
          Hashtbl.remove tbl (Queue.pop order);
          Atomic.incr evictions
        done
      in
      trim program_cache program_order program_evictions;
      trim trace_cache trace_order trace_evictions)

let cache_capacity () = with_lock (fun () -> !cache_cap)

let clear_caches () =
  with_lock (fun () ->
      Hashtbl.reset program_cache;
      Queue.clear program_order;
      Hashtbl.reset trace_cache;
      Queue.clear trace_order);
  Atomic.set trace_hits 0;
  Atomic.set trace_misses 0;
  Atomic.set trace_evictions 0;
  Atomic.set program_hits 0;
  Atomic.set program_misses 0;
  Atomic.set program_evictions 0

let cache_stats () = (Atomic.get trace_hits, Atomic.get trace_misses)

type cache_counters = {
  cc_program_hits : int;
  cc_program_misses : int;
  cc_program_evictions : int;
  cc_program_entries : int;
  cc_trace_hits : int;
  cc_trace_misses : int;
  cc_trace_evictions : int;
  cc_trace_entries : int;
  cc_capacity : int;
}

let cache_counters () =
  let program_entries, trace_entries, capacity =
    with_lock (fun () ->
        (Hashtbl.length program_cache, Hashtbl.length trace_cache, !cache_cap))
  in
  {
    cc_program_hits = Atomic.get program_hits;
    cc_program_misses = Atomic.get program_misses;
    cc_program_evictions = Atomic.get program_evictions;
    cc_program_entries = program_entries;
    cc_trace_hits = Atomic.get trace_hits;
    cc_trace_misses = Atomic.get trace_misses;
    cc_trace_evictions = Atomic.get trace_evictions;
    cc_trace_entries = trace_entries;
    cc_capacity = capacity;
  }

(* Memo key of a pipeline or of input bindings. It is structural:
   [No_sharing] keeps physical sharing (a subexpression built once and
   used twice) out of the bytes, so equal values always digest equally. *)
let digest v = Digest.string (Marshal.to_string v [ Marshal.No_sharing ])

let prepare (p : Types.pipeline) : Phloem_ir.Flat.program array =
  Validate.check p;
  if not (cache_enabled ()) then Phloem_ir.Flat.compile p
  else
    let key = digest p in
    match cache_find program_cache key with
    | Some progs ->
      Atomic.incr program_hits;
      progs
    | None ->
      Atomic.incr program_misses;
      let progs = Phloem_ir.Flat.compile p in
      cache_add program_cache program_order program_evictions key progs;
      progs

let functional ?(inputs = []) (p : Types.pipeline) : Interp.result =
  let programs = prepare p in
  if not (cache_enabled ()) then Phloem_ir.Flat.run ~inputs ~programs p
  else
    (* The op budget changes which executions complete, so it is part of
       the key; failed runs raise before the insert and are never cached. *)
    let key = digest p ^ digest inputs ^ string_of_int (Interp.max_ops ()) in
    match cache_find trace_cache key with
    | Some r ->
      Atomic.incr trace_hits;
      r
    | None ->
      Atomic.incr trace_misses;
      let r = Phloem_ir.Flat.run ~inputs ~programs p in
      Array.iter
        (fun tt -> ignore (Trace.pack tt))
        r.Interp.r_trace.Trace.threads;
      cache_add trace_cache trace_order trace_evictions key r;
      r

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
let json_of_run (r : run) : Telemetry.Json.t =
  let open Telemetry.Json in
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
