(* Differential suite for the compiled µop execution core (Phloem_ir.Flat)
   against the tree-walking interpreter (Phloem_ir.Interp).

   The flat path's contract is byte-identity: same architectural results,
   same micro-op trace (every column, every token), same queue traffic,
   same runtime errors and forensics reports, and budget exhaustion after
   exactly the same number of charged ops. These tests sweep every
   workload's variants on smoke inputs plus hand-built pipelines that
   exercise the compiler's hard corners (control-value handlers, unwinds
   across handler frames, operand capture around dequeues). *)

open Phloem_ir
open Phloem_ir.Builder
open Phloem_workloads

(* --- equality of everything the rest of the system can observe --- *)

let check_trace_eq name (a : Trace.t) (b : Trace.t) =
  Alcotest.(check int)
    (name ^ ": thread count") (Array.length a.Trace.threads)
    (Array.length b.Trace.threads);
  (* sealed traces: every column holds exactly its length, so whole
     columns compare *)
  Array.iteri
    (fun i ta ->
      let tb = b.Trace.threads.(i) in
      let cols (t : Trace.thread_trace) =
        [ t.Trace.kind; t.Trace.pa; t.Trace.dep1; t.Trace.dep2; t.Trace.dep3 ]
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: thread %d trace columns identical" name i)
        true
        (Trace.length ta = Trace.length tb && List.for_all2 Bytes.equal (cols ta) (cols tb)))
    a.Trace.threads;
  Alcotest.(check int)
    (name ^ ": RA count") (Array.length a.Trace.ras)
    (Array.length b.Trace.ras);
  Array.iteri
    (fun i ra ->
      let rb = b.Trace.ras.(i) in
      let cols (r : Trace.ra_trace) = [ r.Trace.rt_in_seq; r.Trace.rt_out_seq; r.Trace.rt_addr ] in
      Alcotest.(check bool)
        (Printf.sprintf "%s: RA %d trace identical" name i)
        true
        (Trace.ra_length ra = Trace.ra_length rb && List.for_all2 Bytes.equal (cols ra) (cols rb)))
    a.Trace.ras;
  Alcotest.(check int) (name ^ ": total ops") a.Trace.total_ops b.Trace.total_ops

let check_result_eq name (a : Interp.result) (b : Interp.result) =
  List.iter2
    (fun (na, va) (nb, vb) ->
      Alcotest.(check string) (name ^ ": array order") na nb;
      Alcotest.(check bool)
        (Printf.sprintf "%s: array %s contents identical" name na)
        true (va = vb))
    a.Interp.r_arrays b.Interp.r_arrays;
  Alcotest.(check int) (name ^ ": instr count") a.Interp.r_instrs b.Interp.r_instrs;
  Alcotest.(check bool)
    (name ^ ": queue traffic identical")
    true
    (a.Interp.r_queue_traffic = b.Interp.r_queue_traffic);
  check_trace_eq name a.Interp.r_trace b.Interp.r_trace

(* Run one execution path, capturing failures in a comparable form. *)
let capture f =
  match f () with
  | v -> Ok v
  | exception Interp.Runtime_error m -> Error ("runtime: " ^ m)
  | exception Interp.Budget_exceeded -> Error "budget"
  | exception Forensics.Pipeline_failure r ->
    Error
      (Printf.sprintf "forensics exit %d at %d:\n%s"
         (Forensics.exit_code r.Forensics.fr_kind)
         r.Forensics.fr_at (Forensics.render r))

(* The core differential assertion: tree and flat agree on outcome —
   results byte-identical, or the same failure. *)
let diff ?(inputs = []) name p =
  let tree = capture (fun () -> Interp.run ~inputs p) in
  let flat = capture (fun () -> Flat.run ~inputs p) in
  match (tree, flat) with
  | Ok a, Ok b -> check_result_eq name a b
  | Error ea, Error eb -> Alcotest.(check string) (name ^ ": same failure") ea eb
  | Ok _, Error e -> Alcotest.failf "%s: tree completed but flat failed: %s" name e
  | Error e, Ok _ -> Alcotest.failf "%s: flat completed but tree failed: %s" name e

(* --- workload sweep: every benchmark x variant on smoke inputs --- *)

let diff_bound (b : Workload.bound) =
  let name = b.Workload.b_name in
  let dp, dins = b.Workload.b_data_parallel ~threads:4 in
  diff ~inputs:(snd b.Workload.b_serial) (name ^ "/serial") (fst b.Workload.b_serial);
  diff ~inputs:dins (name ^ "/data-parallel") dp;
  (match Phloem.Compile.static_flow ~stages:4 (fst b.Workload.b_serial) with
  | p -> diff ~inputs:(snd b.Workload.b_serial) (name ^ "/phloem") p
  | exception Phloem.Compile.Unsupported _ -> ());
  match b.Workload.b_manual with
  | Some (mp, mins) -> diff ~inputs:mins (name ^ "/manual") mp
  | None -> ()

let grid () = Phloem_graph.Gen.grid ~width:14 ~height:10 ~seed:3
let powerlaw () = Phloem_graph.Gen.rmat ~scale:7 ~edge_factor:3 ~seed:4

let test_workloads_graph () =
  List.iter diff_bound
    [
      Bfs.bind (grid ());
      Bfs.bind (powerlaw ());
      Cc.bind (grid ());
      Prd.bind (grid ());
      Radii.bind (grid ());
    ]

let test_workloads_sparse () =
  let a = Phloem_sparse.Gen.random ~rows:24 ~cols:24 ~nnz_per_row:3 ~seed:41 in
  let bt = Phloem_sparse.Gen.random ~rows:24 ~cols:24 ~nnz_per_row:3 ~seed:42 in
  diff_bound (Spmm.bind a bt);
  let m = Phloem_sparse.Gen.banded ~n:30 ~bandwidth:6 ~nnz_per_row:4 ~seed:43 in
  List.iter
    (fun k -> diff_bound (Taco_kernels.bind k m))
    [ Taco_kernels.Spmv; Taco_kernels.Residual; Taco_kernels.Mtmul;
      Taco_kernels.Sddmm ]

let test_workloads_replicated () =
  let g = grid () in
  let p, inputs, _ = Replicated.bfs g ~replicas:4 in
  diff ~inputs "replicated-bfs" p;
  let p, inputs, _ = Replicated.cc (powerlaw ()) ~replicas:4 in
  diff ~inputs "replicated-cc" p

(* --- handler and unwind corners --- *)

(* Fall-through retry: control values interleaved with data; the handler
   accumulates payloads, the dequeue retries transparently. *)
let test_handler_fallthrough () =
  diff "handler-fallthrough"
    (pipeline "hft"
       ~queues:[ queue 0 ]
       ~arrays:[ int_array "out" 10; int_array "seen" 1 ]
       [
         stage "prod"
           [
             for_ "i" (int 0) (int 8)
               [
                 when_ (v "i" %! int 3 ==! int 0) [ enq_ctrl 0 7 ];
                 enq 0 (v "i");
               ];
             enq_ctrl 0 9;
             enq 0 (int 99);
           ];
         stage "cons"
           ~handlers:
             [
               handler ~queue:0 ~cv:"cv"
                 [ atomic_add "seen" (int 0) (ctrl_payload (v "cv")) ];
             ]
           [
             for_ "i" (int 0) (int 9)
               [ "x" <-- deq 0; store "out" (v "i") (v "x") ];
           ];
       ])

(* Exit_loops 1 from a handler terminates the consumer's infinite loop. *)
let test_handler_exit_one () =
  diff "handler-exit-1"
    (pipeline "hx1"
       ~queues:[ queue 0 ]
       ~arrays:[ int_array "out" 8 ]
       [
         stage "prod"
           [ for_ "i" (int 0) (int 5) [ enq 0 (v "i" *! int 3) ]; enq_ctrl 0 1 ];
         stage "cons"
           ~handlers:[ handler ~queue:0 ~cv:"c" [ exit_loops 1 ] ]
           [
             "n" <-- int 0;
             loop_forever
               [
                 "x" <-- deq 0;
                 store "out" (v "n") (v "x");
                 "n" <-- v "n" +! int 1;
               ];
             store "out" (int 7) (int 555);
           ];
       ])

(* Exit_loops 2 unwinds both nested loops from inside the handler. *)
let test_handler_exit_two () =
  diff "handler-exit-2"
    (pipeline "hx2"
       ~queues:[ queue 0 ]
       ~arrays:[ int_array "out" 12 ]
       [
         stage "prod"
           [ for_ "i" (int 0) (int 6) [ enq 0 (v "i") ]; enq_ctrl 0 2 ];
         stage "cons"
           ~handlers:[ handler ~queue:0 ~cv:"c" [ exit_loops 2 ] ]
           [
             "n" <-- int 0;
             loop_forever
               [
                 loop_forever
                   [
                     "x" <-- deq 0;
                     store "out" (v "n") (v "x");
                     "n" <-- v "n" +! int 1;
                   ];
               ];
             store "out" (int 11) (int 777);
           ];
       ])

(* A loop and a break local to the handler body: the unwind resolves as a
   static jump inside the handler unit, then the dequeue retries. *)
let test_handler_local_break () =
  diff "handler-local-break"
    (pipeline "hlb"
       ~queues:[ queue 0 ]
       ~arrays:[ int_array "out" 8; int_array "seen" 1 ]
       [
         stage "prod"
           [
             enq_ctrl 0 5;
             for_ "i" (int 0) (int 4) [ enq 0 (v "i") ];
             enq_ctrl 0 6;
             enq 0 (int 42);
           ];
         stage "cons"
           ~handlers:
             [
               handler ~queue:0 ~cv:"c"
                 [
                   for_ "k" (int 0) (ctrl_payload (v "c"))
                     [
                       when_ (v "k" ==! int 2) [ break_ ];
                       atomic_add "seen" (int 0) (int 1);
                     ];
                 ];
             ]
           [
             for_ "i" (int 0) (int 5)
               [ "x" <-- deq 0; store "out" (v "i") (v "x") ];
           ];
       ])

(* Nested handler invocations: the q0 handler dequeues q1 (which has its
   own handler that unwinds two levels, crossing both handler frames back
   into the stage body's loop). *)
let test_nested_handlers () =
  diff "nested-handlers"
    (pipeline "nest"
       ~queues:[ queue 0; queue 1 ]
       ~arrays:[ int_array "out" 8; int_array "aux" 4 ]
       [
         stage "prod"
           [
             enq 0 (int 10);
             enq_ctrl 0 1;
             enq 1 (int 20);
             enq 0 (int 30);
             enq 1 (int 40);
             enq_ctrl 1 2;
             enq_ctrl 0 3;
           ];
         stage "cons"
           ~handlers:
             [
               handler ~queue:0 ~cv:"c0"
                 [ "y" <-- deq 1; store "aux" (ctrl_payload (v "c0")) (v "y") ];
               handler ~queue:1 ~cv:"c1" [ exit_loops 2 ];
             ]
           [
             "n" <-- int 0;
             loop_forever
               [
                 loop_forever
                   [
                     "x" <-- deq 0;
                     store "out" (v "n") (v "x");
                     "n" <-- v "n" +! int 1;
                   ];
               ];
             store "out" (int 7) (int 888);
           ];
       ])

(* Operand capture: the tree interpreter reads the left operand before the
   right-hand dequeue runs its handler (which clobbers the same variable);
   the compiled path must shield the captured value and token. *)
let test_operand_capture () =
  diff "operand-capture"
    (pipeline "shield"
       ~queues:[ queue 0 ]
       ~arrays:[ int_array "out" 4 ]
       [
         stage "prod" [ enq_ctrl 0 5; enq 0 (int 10) ];
         stage "cons"
           ~handlers:[ handler ~queue:0 ~cv:"c" [ "x" <-- int 100 ] ]
           [
             "x" <-- int 1;
             "y" <-- v "x" +! deq 0;
             store "out" (int 0) (v "y");
             store "out" (int 1) (v "x");
           ];
       ])

(* For-loop bound capture: the bound is evaluated once; a handler running
   mid-loop that rewrites the bound variable must not change trip count. *)
let test_for_bound_capture () =
  diff "for-bound-capture"
    (pipeline "bound"
       ~queues:[ queue 0 ]
       ~arrays:[ int_array "out" 8 ]
       [
         stage "prod"
           [ enq 0 (int 1); enq_ctrl 0 9; enq 0 (int 2); enq 0 (int 3) ];
         stage "cons"
           ~handlers:[ handler ~queue:0 ~cv:"c" [ "n" <-- int 0 ] ]
           [
             "n" <-- int 3;
             for_ "i" (int 0) (v "n")
               [ "x" <-- deq 0; store "out" (v "i") (v "x") ];
             store "out" (int 4) (v "n");
           ];
       ])

(* --- failure parity --- *)

let test_runtime_error_parity () =
  (* division by zero, out-of-bounds store, break outside any loop: same
     Runtime_error text on both paths *)
  diff "div-by-zero"
    (serial "dz" [ "x" <-- int 1 /! int 0 ]);
  diff "oob-store"
    (pipeline "oob" ~arrays:[ int_array "a" 4 ]
       [ stage "s" [ store "a" (int 9) (int 1) ] ]);
  diff "naked-break" (serial "nb" [ break_ ]);
  diff "unknown-array"
    (pipeline "ua" ~arrays:[ int_array "a" 4 ]
       [ stage "s" [ store "b" (int 0) (int 1) ] ])

let test_deadlock_parity () =
  (* a consumer starving on a queue nobody fills: both paths raise the
     same structured forensics report from the shared scheduler *)
  diff "starved-deq"
    (pipeline "starve"
       ~queues:[ queue 0; queue 1 ]
       [
         stage "a" [ "x" <-- deq 0 ];
         stage "b" [ enq 1 (int 1); "y" <-- deq 1; "z" <-- deq 0 ];
       ])

(* --- budget parity --- *)

(* The op budget is charged at exactly three sites shared by both paths;
   the flat path must exhaust a budget of N-1 and survive a budget of N for
   the same N. Find the tree path's exact threshold by binary search, then
   pin the flat path to it. *)
let test_budget_parity () =
  let p, inputs = (Bfs.bind (grid ())).Workload.b_serial in
  let tree () = ignore (Interp.run ~inputs p) in
  let flat () = ignore (Flat.run ~inputs p) in
  let passes run n =
    match Interp.with_max_ops n run with
    | () -> true
    | exception Interp.Budget_exceeded -> false
  in
  let rec up n = if passes tree n then n else up (2 * n) in
  let rec bin lo hi =
    if lo >= hi then hi
    else
      let m = (lo + hi) / 2 in
      if passes tree m then bin lo m else bin (m + 1) hi
  in
  let threshold = bin 1 (up 1024) in
  Alcotest.(check bool) "tree fails below threshold" false
    (passes tree (threshold - 1));
  Alcotest.(check bool)
    (Printf.sprintf "flat passes at threshold %d" threshold)
    true (passes flat threshold);
  Alcotest.(check bool) "flat fails below threshold" false
    (passes flat (threshold - 1))

(* --- misc op coverage: calls, indexed enqueues, unops, prefetch --- *)

let test_misc_ops () =
  diff "calls-and-misc"
    (pipeline "misc"
       ~queues:[ queue 0; queue 1; queue 2 ]
       ~arrays:[ int_array "out" 16; float_array "f" 4 ]
       ~params:[ ("base", Phloem_ir.Types.Vint 2) ]
       ~call_costs:[ ("hash", 3); ("free", 1) ]
       [
         stage "prod"
           [
             for_ "i" (int 0) (int 6)
               [
                 prefetch "out" (v "i");
                 enq_indexed [| 0; 1 |] (v "i" %! int 2) (call "hash" [ v "i"; v "base" ]);
               ];
             enq 2 (int 0);
             store "f" (int 0) (flt 1.5);
             store "f" (int 1) (fabs (neg (load "f" (int 0))));
             "c" <-- call "free" [];
             store "out" (int 15) (v "c" +! to_int (load "f" (int 1)));
           ];
         stage "cons"
           [
             "g" <-- deq 2;
             for_ "i" (int 0) (int 3)
               [
                 "a" <-- deq 0;
                 "b" <-- deq 1;
                 store "out" (v "i") (imin (v "a") (v "b"));
                 store "out" (v "i" +! int 3) (imax (v "a") (v "b"));
                 store "out" (v "i" +! int 6)
                   (not_ (v "a" ==! v "b") &&! (v "a" <=! v "b"));
               ];
           ];
       ])

let test_barrier_parity () =
  diff "barriers"
    (pipeline "barr"
       ~arrays:[ int_array "out" 4 ]
       [
         stage "a" [ store "out" (int 0) (int 1); barrier 0; "x" <-- load "out" (int 1); store "out" (int 2) (v "x" +! int 1); barrier 1 ];
         stage "b" [ store "out" (int 1) (int 7); barrier 0; barrier 1; store "out" (int 3) (load "out" (int 2)) ];
       ])

(* --- timing-path differential: Sim.run (compiled core, memoized traces)
   vs Sim.run_tree (tree-walking reference, cache-free). The contract
   extends byte-identity from architectural results to the full timing
   picture: cycles, stall attribution, cache/branch/queue counters, energy,
   the machine-readable JSON report, and forensics failures under fault
   injection. *)

module Sim = Pipette.Sim
module Faults = Pipette.Faults

let check_sim_eq name (a : Sim.run) (b : Sim.run) =
  check_result_eq name a.Sim.sr_functional b.Sim.sr_functional;
  Alcotest.(check bool)
    (name ^ ": timing result identical (cycles, attribution, counters)")
    true
    (a.Sim.sr_timing = b.Sim.sr_timing);
  Alcotest.(check bool)
    (name ^ ": energy breakdown identical")
    true
    (a.Sim.sr_energy = b.Sim.sr_energy);
  Alcotest.(check string)
    (name ^ ": json report identical")
    (Phloem_util.Json.to_string (Sim.json_of_run a))
    (Phloem_util.Json.to_string (Sim.json_of_run b))

(* Fresh [Faults.t] per execution path: reusing one continues its PRNG
   stream, which is exactly the non-determinism the plan abstraction
   exists to prevent. *)
let diff_sim ?(inputs = []) ?plan ?watchdog ?cycle_budget name p =
  let faults () = Option.map Faults.create plan in
  let tree =
    capture (fun () ->
        Sim.run_tree ~inputs ?faults:(faults ()) ?watchdog ?cycle_budget p)
  in
  let flat =
    capture (fun () ->
        Sim.run ~inputs ?faults:(faults ()) ?watchdog ?cycle_budget p)
  in
  match (tree, flat) with
  | Ok a, Ok b -> check_sim_eq name a b
  | Error ea, Error eb -> Alcotest.(check string) (name ^ ": same failure") ea eb
  | Ok _, Error e ->
    Alcotest.failf "%s: tree run completed but compiled run failed: %s" name e
  | Error e, Ok _ ->
    Alcotest.failf "%s: compiled run completed but tree run failed: %s" name e

(* Like [diff_sim] but both paths must fail, with the same forensics report
   and the expected exit code. *)
let diff_sim_fail ?(inputs = []) ?plan ?watchdog ?cycle_budget ~exit_code name
    p =
  let faults () = Option.map Faults.create plan in
  let tree =
    capture (fun () ->
        Sim.run_tree ~inputs ?faults:(faults ()) ?watchdog ?cycle_budget p)
  in
  let flat =
    capture (fun () ->
        Sim.run ~inputs ?faults:(faults ()) ?watchdog ?cycle_budget p)
  in
  match (tree, flat) with
  | Error ea, Error eb ->
    Alcotest.(check string) (name ^ ": same forensics report") ea eb;
    let prefix = Printf.sprintf "forensics exit %d" exit_code in
    Alcotest.(check bool)
      (Printf.sprintf "%s: failure kind (want %s, got %s)" name prefix
         (try String.sub ea 0 (min 24 (String.length ea)) with _ -> ea))
      true
      (String.length ea >= String.length prefix
      && String.sub ea 0 (String.length prefix) = prefix)
  | Ok _, Ok _ -> Alcotest.failf "%s: expected both paths to fail" name
  | Ok _, Error e ->
    Alcotest.failf "%s: tree run completed but compiled run failed: %s" name e
  | Error e, Ok _ ->
    Alcotest.failf "%s: compiled run completed but tree run failed: %s" name e

let sim_bound (b : Workload.bound) =
  let name = b.Workload.b_name ^ "-sim" in
  let dp, dins = b.Workload.b_data_parallel ~threads:4 in
  diff_sim
    ~inputs:(snd b.Workload.b_serial)
    (name ^ "/serial")
    (fst b.Workload.b_serial);
  diff_sim ~inputs:dins (name ^ "/data-parallel") dp;
  (match Phloem.Compile.static_flow ~stages:4 (fst b.Workload.b_serial) with
  | p -> diff_sim ~inputs:(snd b.Workload.b_serial) (name ^ "/phloem") p
  | exception Phloem.Compile.Unsupported _ -> ());
  match b.Workload.b_manual with
  | Some (mp, mins) -> diff_sim ~inputs:mins (name ^ "/manual") mp
  | None -> ()

let test_sim_workloads_graph () =
  List.iter sim_bound
    [
      Bfs.bind (grid ());
      Bfs.bind (powerlaw ());
      Cc.bind (grid ());
      Prd.bind (grid ());
      Radii.bind (grid ());
    ]

let test_sim_workloads_sparse () =
  let a = Phloem_sparse.Gen.random ~rows:24 ~cols:24 ~nnz_per_row:3 ~seed:41 in
  let bt = Phloem_sparse.Gen.random ~rows:24 ~cols:24 ~nnz_per_row:3 ~seed:42 in
  sim_bound (Spmm.bind a bt);
  let m = Phloem_sparse.Gen.banded ~n:30 ~bandwidth:6 ~nnz_per_row:4 ~seed:43 in
  List.iter
    (fun k -> sim_bound (Taco_kernels.bind k m))
    [ Taco_kernels.Spmv; Taco_kernels.Residual; Taco_kernels.Mtmul;
      Taco_kernels.Sddmm ]

(* Warm-cache replay: the second [Sim.run] serves the functional trace from
   the memo table; it must be indistinguishable from the cold run and from
   the cache-free tree path. *)
let test_sim_cache_warm () =
  let p, inputs = (Bfs.bind (grid ())).Workload.b_serial in
  Sim.clear_caches ();
  let cold = Sim.run ~inputs p in
  let warm = Sim.run ~inputs p in
  check_sim_eq "trace-cache warm replay" cold warm;
  let tree = Sim.run_tree ~inputs p in
  check_sim_eq "warm vs tree" warm tree

(* The FIFO bound is configurable and must hold under churn: simulating
   more distinct pipelines than the capacity keeps both memo tables at the
   bound, with the overflow visible in the eviction counters and evicted
   entries re-missing on reuse. *)
let test_sim_cache_capacity_churn () =
  let initial_cap = (Sim.cache_counters ()).Sim.cc_capacity in
  Fun.protect
    ~finally:(fun () ->
      Sim.set_cache_capacity initial_cap;
      Sim.clear_caches ())
    (fun () ->
      Alcotest.check_raises "capacity must be positive"
        (Invalid_argument "Sim.set_cache_capacity: capacity must be >= 1")
        (fun () -> Sim.set_cache_capacity 0);
      Sim.clear_caches ();
      Sim.set_cache_capacity 4;
      (* 10 structurally distinct pipelines (distinct iteration bounds) *)
      let pipe n =
        pipeline (Printf.sprintf "churn%d" n)
          ~queues:[ queue 0 ]
          [
            stage "prod" [ for_ "i" (int 0) (int n) [ enq 0 (v "i") ] ];
            stage "cons" [ for_ "i" (int 0) (int n) [ "x" <-- deq 0 ] ];
          ]
      in
      for n = 1 to 10 do
        ignore (Sim.run (pipe n))
      done;
      let c = Sim.cache_counters () in
      Alcotest.(check int) "trace entries at the bound" 4 c.Sim.cc_trace_entries;
      Alcotest.(check int) "program entries at the bound" 4
        c.Sim.cc_program_entries;
      Alcotest.(check int) "trace evictions = overflow" 6 c.Sim.cc_trace_evictions;
      Alcotest.(check int) "program evictions = overflow" 6
        c.Sim.cc_program_evictions;
      Alcotest.(check int) "all ten missed" 10 c.Sim.cc_trace_misses;
      (* oldest entries were evicted; the newest still hit *)
      ignore (Sim.run (pipe 10));
      ignore (Sim.run (pipe 1));
      let c = Sim.cache_counters () in
      Alcotest.(check int) "newest entry hits" 1 c.Sim.cc_trace_hits;
      Alcotest.(check int) "evicted entry re-misses" 11 c.Sim.cc_trace_misses;
      (* shrinking evicts immediately, oldest first *)
      Sim.set_cache_capacity 2;
      let c = Sim.cache_counters () in
      Alcotest.(check int) "shrink trims to the new bound" 2
        c.Sim.cc_trace_entries;
      Alcotest.(check int) "shrink trims programs too" 2 c.Sim.cc_program_entries)

(* The memo keys are structural: two equal pipelines that differ only in
   physical sharing (a subexpression built once and used twice, or built
   twice) compile and trace once. *)
let test_sim_cache_ignores_sharing () =
  Fun.protect ~finally:Sim.clear_caches (fun () ->
      Sim.clear_caches ();
      let pipe x y =
        pipeline "share"
          ~arrays:[ int_array "out" 8 ]
          [
            stage "s"
              [ for_ "i" (int 0) (int 8) [ store "out" (v "i") (x +! y) ] ];
          ]
      in
      let square () = v "i" *! v "i" in
      let e = square () in
      let shared = pipe e e and copied = pipe (square ()) (square ()) in
      Alcotest.(check bool) "structurally equal" true (shared = copied);
      ignore (Sim.run shared);
      ignore (Sim.run copied);
      let c = Sim.cache_counters () in
      Alcotest.(check (pair int int))
        "program cache: 1 miss, 1 hit" (1, 1)
        (c.Sim.cc_program_misses, c.Sim.cc_program_hits);
      Alcotest.(check (pair int int))
        "trace cache: 1 miss, 1 hit" (1, 1)
        (c.Sim.cc_trace_misses, c.Sim.cc_trace_hits))

(* Two domains that call [Sim.functional] on one pipeline at once share
   one compile and one trace: each memo table counts one miss and one hit,
   and both callers get the same result. *)
let test_sim_cache_single_flight () =
  Fun.protect ~finally:Sim.clear_caches (fun () ->
      Sim.clear_caches ();
      let p, inputs =
        (Bfs.bind (Phloem_graph.Gen.grid ~width:48 ~height:48 ~seed:9))
          .Workload.b_serial
      in
      let ready = Atomic.make 0 in
      let call () =
        Atomic.incr ready;
        while Atomic.get ready < 2 do
          Domain.cpu_relax ()
        done;
        Sim.functional ~inputs p
      in
      let other = Domain.spawn call in
      let mine = call () in
      let other = Domain.join other in
      Alcotest.(check bool) "one shared result" true (mine == other);
      let c = Sim.cache_counters () in
      Alcotest.(check (pair int int))
        "program cache: 1 miss, 1 hit" (1, 1)
        (c.Sim.cc_program_misses, c.Sim.cc_program_hits);
      Alcotest.(check (pair int int))
        "trace cache: 1 miss, 1 hit" (1, 1)
        (c.Sim.cc_trace_misses, c.Sim.cc_trace_hits))

(* The trace cache weighs each entry by its sealed trace's bytes: 11 per
   op and 12 per RA event, with no chunk slack. *)
let test_sim_cache_trace_bytes () =
  Fun.protect ~finally:Sim.clear_caches (fun () ->
      Sim.clear_caches ();
      let b = Bfs.bind (grid ()) in
      let serial = b.Workload.b_serial in
      let manual = Option.get b.Workload.b_manual in
      let traces =
        List.map (fun (p, inputs) -> (Sim.functional ~inputs p).Interp.r_trace) [ serial; manual ]
      in
      List.iter
        (fun tr ->
          let events = Array.fold_left (fun n r -> n + Trace.ra_length r) 0 tr.Trace.ras in
          Alcotest.(check int)
            "bytes = 11 per op + 12 per RA event"
            ((11 * Trace.op_count tr) + (12 * events))
            (Trace.bytes tr))
        traces;
      Alcotest.(check bool) "the manual pipeline drives RAs" true
        (Array.exists (fun r -> Trace.ra_length r > 0) (List.nth traces 1).Trace.ras);
      let c = Sim.cache_counters () in
      Alcotest.(check int) "two misses" 2 c.Sim.cc_trace_misses;
      Alcotest.(check int) "cc_trace_bytes sums both traces"
        (List.fold_left (fun n tr -> n + Trace.bytes tr) 0 traces)
        c.Sim.cc_trace_bytes)

(* A two-stage producer/consumer whose queue is the fault target. [n] is
   larger than the queue depth so occupancy faults bite. *)
let faulty_pipe n =
  pipeline "faulty"
    ~queues:[ queue 0 ]
    ~arrays:[ int_array "out" n ]
    [
      stage "prod" [ for_ "i" (int 0) (int n) [ enq 0 (v "i" *! v "i") ] ];
      stage "cons"
        [
          for_ "i" (int 0) (int n)
            [ "x" <-- deq 0; store "out" (v "i") (v "x") ];
        ];
    ]

(* Faults that perturb timing but let the run complete: both paths must
   draw the same PRNG decisions at the same replay points, under a second
   key too. *)
let test_sim_fault_perturbed () =
  let p, inputs = (Bfs.bind (grid ())).Workload.b_serial in
  let p =
    match Phloem.Compile.static_flow ~stages:4 p with
    | p -> p
    | exception Phloem.Compile.Unsupported _ -> Alcotest.fail "bfs static_flow"
  in
  let plan =
    Faults.plan ~key:7
      [
        Faults.Latency_spike { level = 4; extra = 200; prob = 0.5 };
        Faults.Predictor_poison { prob = 0.25 };
        Faults.Thread_stall { thread = 1; period = 500; duration = 50 };
      ]
  in
  diff_sim ~inputs ~plan "perturbed-complete" p;
  diff_sim ~inputs
    ~plan:{ plan with Faults.fp_key = 7 + (3 * 0x9e3779b97f4a7c1) }
    "perturbed-second-key" p

(* The producer thread is permanently frozen mid-stream: the consumer
   starves on a queue nobody will ever fill again — deadlock, exit 5. *)
let test_sim_fault_deadlock () =
  diff_sim_fail ~exit_code:5
    ~plan:
      (Faults.plan ~key:11
         [ Faults.Thread_kill { thread = 0; after_retired = 10 } ])
    "kill-producer-deadlock" (faulty_pipe 64)

(* Every enqueue attempt transiently fails and is retried next cycle: the
   clock keeps ticking, nothing retires — livelock, exit 6. *)
let test_sim_fault_livelock () =
  diff_sim_fail ~exit_code:6 ~watchdog:3000
    ~plan:(Faults.plan ~key:13 [ Faults.Queue_drop { queue = 0; prob = 1.0 } ])
    "drop-forever-livelock" (faulty_pipe 64)

(* A healthy pipeline against a cycle budget far below its runtime —
   budget exhaustion, exit 7, at the same cycle on both paths. *)
let test_sim_budget_exhausted () =
  diff_sim_fail ~exit_code:7 ~cycle_budget:100 "tiny-cycle-budget"
    (faulty_pipe 64)

let () =
  Alcotest.run "flat"
    [
      ( "workloads",
        [
          Alcotest.test_case "graph benchmarks" `Quick test_workloads_graph;
          Alcotest.test_case "sparse benchmarks" `Quick test_workloads_sparse;
          Alcotest.test_case "replicated" `Quick test_workloads_replicated;
        ] );
      ( "handlers",
        [
          Alcotest.test_case "fall-through retry" `Quick test_handler_fallthrough;
          Alcotest.test_case "exit one loop" `Quick test_handler_exit_one;
          Alcotest.test_case "exit two loops" `Quick test_handler_exit_two;
          Alcotest.test_case "handler-local break" `Quick test_handler_local_break;
          Alcotest.test_case "nested handlers" `Quick test_nested_handlers;
          Alcotest.test_case "operand capture" `Quick test_operand_capture;
          Alcotest.test_case "for bound capture" `Quick test_for_bound_capture;
        ] );
      ( "failures",
        [
          Alcotest.test_case "runtime errors" `Quick test_runtime_error_parity;
          Alcotest.test_case "deadlock forensics" `Quick test_deadlock_parity;
          Alcotest.test_case "budget threshold" `Quick test_budget_parity;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "misc ops" `Quick test_misc_ops;
          Alcotest.test_case "barriers" `Quick test_barrier_parity;
        ] );
      ( "timing",
        [
          Alcotest.test_case "graph benchmarks" `Quick test_sim_workloads_graph;
          Alcotest.test_case "sparse benchmarks" `Quick
            test_sim_workloads_sparse;
          Alcotest.test_case "warm trace cache" `Quick test_sim_cache_warm;
          Alcotest.test_case "cache capacity under churn" `Quick
            test_sim_cache_capacity_churn;
          Alcotest.test_case "cache keys ignore sharing" `Quick
            test_sim_cache_ignores_sharing;
          Alcotest.test_case "concurrent misses build once" `Quick
            test_sim_cache_single_flight;
          Alcotest.test_case "trace cache weighs trace bytes" `Quick
            test_sim_cache_trace_bytes;
          Alcotest.test_case "fault perturbation" `Quick
            test_sim_fault_perturbed;
          Alcotest.test_case "fault deadlock" `Quick test_sim_fault_deadlock;
          Alcotest.test_case "fault livelock" `Quick test_sim_fault_livelock;
          Alcotest.test_case "budget exhaustion" `Quick
            test_sim_budget_exhausted;
        ] );
    ]
