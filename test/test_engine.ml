(* Golden timing-engine outputs, and the cycle loop's allocation guard.

   Each golden case runs one simulation and digests everything it reports:
   the [Sim.json_of_run] report (cycles, stall split, cache, branch and
   queue counters, energy), the refined attribution, the telemetry report
   and Chrome trace when telemetry is on, and the forensics report when the
   run fails. The expected digests were recorded before the engine's hot
   path was reworked for speed, so they pin the exact output of the timing
   model. They are a regression pin, not an independent reference: a change
   that means to alter the timing model re-records them and says why.

   The cases reach every engine path: each kernel's variants on a smoke
   input (SpMM's and BFS's manual pipelines drive reference accelerators),
   prefetches, atomics and barriers, four cores with one stage per core,
   queue-capacity overrides down to capacity 1 around reference
   accelerators, telemetry, and fault plans that end clean, in deadlock, in
   livelock and in budget exhaustion.

   The same cases, four runs that cross the cycle budget or the watchdog
   window, and a seeded QCheck property over random machines run the
   engine against [Stepper], a reference that advances one cycle at a time
   with none of the engine's skips: the digests pin the output, the
   stepper checks it. So does a thread whose dependences reach further
   back than a trace's dependence column can store. *)

open Phloem_ir
open Phloem_ir.Builder
open Phloem_workloads
module Sim = Pipette.Sim
module Engine = Pipette.Engine
module Config = Pipette.Config
module Faults = Pipette.Faults
module Telemetry = Pipette.Telemetry
module Json = Phloem_util.Json
module Key = Phloem_util.Key

let digest_run ?telemetry (r : Sim.run) =
  let tel =
    match telemetry with
    | None -> []
    | Some t ->
      [
        Json.to_string (Telemetry.report_json t);
        Json.to_string (Telemetry.trace_json t);
      ]
  in
  Key.of_string
    (String.concat "\n"
       (Json.to_string (Sim.json_of_run r)
       :: Key.of_value r.Sim.sr_timing.Engine.attribution
       :: tel))

(* A failed run digests its structured report, tagged with the failure
   kind so a mismatch names what went wrong. *)
let outcome ?telemetry run =
  match run () with
  | r -> digest_run ?telemetry r
  | exception Forensics.Pipeline_failure rep ->
    Forensics.kind_name rep.Forensics.fr_kind ^ ":" ^ Key.of_value rep

let grid () = Phloem_graph.Gen.grid ~width:14 ~height:10 ~seed:3

let static p =
  match Phloem.Compile.static_flow ~stages:4 p with
  | p -> Some p
  | exception Phloem.Compile.Unsupported _ -> None

(* serial, data-parallel on 4 threads, Phloem's static 4-stage pipeline,
   and the hand-pipelined variant when the kernel has one *)
let variants (b : Workload.bound) =
  let name = b.Workload.b_name in
  let sp, sins = b.Workload.b_serial in
  let dp, dins = b.Workload.b_data_parallel ~threads:4 in
  [ (name ^ "/serial", sp, sins); (name ^ "/data-parallel", dp, dins) ]
  @ (match static sp with
    | Some p -> [ (name ^ "/phloem-static", p, sins) ]
    | None -> [])
  @
  match b.Workload.b_manual with
  | Some (mp, mins) -> [ (name ^ "/manual", mp, mins) ]
  | None -> []

(* One golden case: a pipeline, its inputs, and the machine and options it
   replays under. *)
type case = {
  name : string;
  pipe : Types.pipeline;
  inputs : (string * Types.value array) list;
  cfg : Config.t;
  thread_core : int array option;
  queue_caps : (int * int) list;
  plan : Faults.plan option;
  watchdog : int option;
  cycle_budget : int option;
  telemetry : bool;
}

let case ?(inputs = []) ?(cfg = Config.default) ?thread_core ?(queue_caps = []) ?plan
    ?watchdog ?cycle_budget ?(telemetry = false) name pipe =
  { name; pipe; inputs; cfg; thread_core; queue_caps; plan; watchdog; cycle_budget; telemetry }

let digest c =
  let telemetry = if c.telemetry then Some (Telemetry.create ~interval:256 ()) else None in
  outcome ?telemetry (fun () ->
      Sim.simulate ~cfg:c.cfg ?thread_core:c.thread_core ~queue_caps:c.queue_caps ?telemetry
        ?faults:(Option.map Faults.create c.plan) ?watchdog:c.watchdog
        ?cycle_budget:c.cycle_budget c.pipe
        (Sim.functional ~inputs:c.inputs c.pipe))

(* The engine and the stepper on one case, telemetry aside (the stepper
   keeps none). *)
let stepper_differences c =
  Stepper.compare_replays ~cfg:c.cfg ?thread_core:c.thread_core ~queue_caps:c.queue_caps
    ?plan:c.plan ?watchdog:c.watchdog ?cycle_budget:c.cycle_budget c.pipe
    (Sim.functional ~inputs:c.inputs c.pipe)

let kernel_cases () =
  let a = Phloem_sparse.Gen.random ~rows:24 ~cols:24 ~nnz_per_row:3 ~seed:41 in
  let bt = Phloem_sparse.Gen.random ~rows:24 ~cols:24 ~nnz_per_row:3 ~seed:42 in
  let m = Phloem_sparse.Gen.banded ~n:30 ~bandwidth:6 ~nnz_per_row:4 ~seed:43 in
  List.concat_map variants
    [
      Bfs.bind (grid ());
      Cc.bind (grid ());
      Prd.bind (grid ());
      Radii.bind (grid ());
      Spmm.bind a bt;
      Taco_kernels.bind Taco_kernels.Spmv m;
    ]
  |> List.map (fun (name, p, inputs) -> case ~inputs name p)

(* Prefetch, atomic and barrier in one two-stage pipeline: the producer
   prefetches and streams indices, the consumer folds them with atomics,
   and both meet at two barriers. *)
let mem_ops_pipe () =
  pipeline "memops"
    ~queues:[ queue ~capacity:4 0 ]
    ~arrays:[ int_array "a" 64; int_array "m" 16; int_array "out" 4 ]
    [
      stage "prod"
        [
          for_ "i" (int 0) (int 64)
            [ prefetch "a" ((v "i" +! int 8) %! int 64); enq 0 (load "a" (v "i")) ];
          barrier 1;
          store "out" (int 0) (load "m" (int 3));
          barrier 2;
        ];
      stage "cons"
        [
          for_ "i" (int 0) (int 64)
            [
              "x" <-- deq 0;
              atomic_min "m" (v "x" %! int 16) (v "i");
              atomic_add "m" (v "i" %! int 16) (v "x");
            ];
          barrier 1;
          barrier 2;
          store "out" (int 1) (load "out" (int 0));
        ];
    ]

let mem_ops_inputs = [ ("a", Workload.vint (Array.init 64 (fun i -> (i * 37) mod 64))) ]

let bfs_static () =
  let b = Bfs.bind (grid ()) in
  let p, inputs = b.Workload.b_serial in
  match static p with
  | Some p -> (p, inputs)
  | None -> Alcotest.fail "bfs static_flow"

(* A producer/consumer whose queue is the fault target; [n] exceeds the
   queue depth so occupancy faults bite. *)
let faulty_pipe n =
  pipeline "faulty"
    ~queues:[ queue 0 ]
    ~arrays:[ int_array "out" n ]
    [
      stage "prod" [ for_ "i" (int 0) (int n) [ enq 0 (v "i" *! v "i") ] ];
      stage "cons"
        [ for_ "i" (int 0) (int n) [ "x" <-- deq 0; store "out" (v "i") (v "x") ] ];
    ]

(* Every fault kind that lets BFS finish: spikes at DRAM and on RA
   fetches, predictor poisoning, a periodic stall of thread 1 (50 cycles of
   every 500), transient drops and phantom duplicates. *)
let faults_clean_plan =
  Faults.plan ~key:7
    [
      Faults.Latency_spike { level = 4; extra = 200; prob = 0.5 };
      Faults.Latency_spike { level = 0; extra = 30; prob = 0.5 };
      Faults.Predictor_poison { prob = 0.25 };
      Faults.Thread_stall { thread = 1; period = 500; duration = 50 };
      Faults.Queue_drop { queue = -1; prob = 0.1 };
      Faults.Queue_dup { queue = 0; prob = 0.01 };
    ]

let machine_cases () =
  let p, inputs = bfs_static () in
  [
    case ~inputs:mem_ops_inputs "memops" (mem_ops_pipe ());
    case ~inputs ~cfg:Config.four_cores ~thread_core:[| 0; 1; 2; 3 |]
      "bfs/phloem-static/four-cores" p;
    case ~inputs ~queue_caps:[ (0, 2); (1, 64) ] "bfs/phloem-static/queue-caps" p;
    case ~inputs ~telemetry:true "bfs/phloem-static/telemetry" p;
    case ~inputs ~plan:faults_clean_plan "bfs/phloem-static/faults-clean" p;
    case
      ~plan:(Faults.plan ~key:11 [ Faults.Thread_kill { thread = 0; after_retired = 10 } ])
      "faulty/deadlock" (faulty_pipe 64);
    case
      ~plan:(Faults.plan ~key:13 [ Faults.Queue_drop { queue = 0; prob = 1.0 } ])
      ~watchdog:3000 "faulty/livelock" (faulty_pipe 64);
    case ~cycle_budget:100 "faulty/budget-exhausted" (faulty_pipe 64);
  ]

(* Queues at their tightest: capacity 1 and 2 on the queues that feed and
   join BFS's two chained reference accelerators, and capacity 1 on all
   four RA input queues of SpMM's. A scan RA rereads the last input it
   consumed, one slot behind its consumer, so these are the cases where an
   arrival log shorter than capacity + 1 would lose a live entry. Their
   digests were recorded while each queue still logged every arrival of
   the run. *)
let ring_cases () =
  let a = Phloem_sparse.Gen.random ~rows:24 ~cols:24 ~nnz_per_row:3 ~seed:41 in
  let bt = Phloem_sparse.Gen.random ~rows:24 ~cols:24 ~nnz_per_row:3 ~seed:42 in
  let manual name (b : Workload.bound) queue_caps =
    match b.Workload.b_manual with
    | Some (p, inputs) -> case ~inputs ~queue_caps name p
    | None -> Alcotest.fail (b.Workload.b_name ^ ": no manual pipeline")
  in
  let bfs graph_name g =
    let b = Bfs.bind g in
    List.map
      (fun (caps_name, caps) -> manual ("BFS/manual/" ^ graph_name ^ "/" ^ caps_name) b caps)
      [
        ("q1=1", [ (1, 1) ]);
        ("q1=2", [ (1, 2) ]);
        ("q0,q1,q2=1", [ (0, 1); (1, 1); (2, 1) ]);
      ]
  in
  bfs "grid" (grid ())
  @ bfs "rmat" (Phloem_graph.Gen.rmat ~scale:8 ~edge_factor:4 ~seed:7)
  @ [ manual "SpMM/manual/ra-inputs=1" (Spmm.bind a bt) [ (0, 1); (1, 1); (2, 1); (3, 1) ] ]

(* Runs that cross the cycle budget or the watchdog window while the
   engine fast-forwards to a calendar event beyond it: the run must fail at
   the first cycle past the threshold, as the stepper's does, not at that
   later event. No digest is recorded for these; the stepper checks them,
   and [threshold_case] checks how each fails. *)
let threshold_cases () =
  let b = Bfs.bind (grid ()) in
  let serial = b.Workload.b_serial in
  let manual =
    match b.Workload.b_manual with
    | Some m -> m
    | None -> Alcotest.fail "BFS: no manual pipeline"
  in
  let at ?watchdog ?cycle_budget name (p, inputs) = case ~inputs ?watchdog ?cycle_budget name p in
  [
    (at ~cycle_budget:100 "BFS/serial/budget=100" serial, Forensics.Budget_exhausted);
    (at ~cycle_budget:1000 "BFS/serial/budget=1000" serial, Forensics.Budget_exhausted);
    (at ~watchdog:30 "BFS/serial/watchdog=30" serial, Forensics.Livelock);
    (at ~watchdog:20 "BFS/manual/watchdog=20" manual, Forensics.Livelock);
  ]

(* Recorded before the hot-path rework; see the header. *)
let golden =
  [
    ("BFS/serial", "6bf9829a3d35d244446157b566fb2df2");
    ("BFS/data-parallel", "8b092cd15fbd9ad6bb6c89a02fefd8c5");
    ("BFS/phloem-static", "1b129d8ff0db6a882768755484303bd2");
    ("BFS/manual", "132dca60869c72ebfe26ab17ccb98008");
    ("CC/serial", "a6d0a976a46155c8985aa0b649d4ef59");
    ("CC/data-parallel", "1331055bebd8eb65751a78961c8d484e");
    ("CC/phloem-static", "8d58a51252626610878a89b18eb57723");
    ("CC/manual", "e84cd9319faf9f722c74340953e93471");
    ("PRD/serial", "66b3d9671579a94deb22afea2fc5aeb3");
    ("PRD/data-parallel", "f166a4851b34ff7e326b526c8dc0621e");
    ("PRD/phloem-static", "dace156b4cbb21a3c0ed2ad83f4201b3");
    ("PRD/manual", "23c49a8a56971bb1cfb56bf83c5e82b7");
    ("Radii/serial", "1ebbb191df79a55b3fe92d3c21b73ef0");
    ("Radii/data-parallel", "3077b6e6dc7e96842cde840007ebd311");
    ("Radii/phloem-static", "71cdc95a20217aa543edf0bc928899ab");
    ("Radii/manual", "a3fd029a771cf361f45636bbf5243e1f");
    ("SpMM/serial", "21f6f5d2030287b7415aec2b172fadc1");
    ("SpMM/data-parallel", "18ffc3d6a3a88d9fa81801d858d24602");
    ("SpMM/phloem-static", "e68b8ded217e895cd1eb4112ac205a8d");
    ("SpMM/manual", "90587fb4db7ef8dea7e67a7932f84542");
    ("SpMV/serial", "7f244184784e8d197efb308c80d7c0a5");
    ("SpMV/data-parallel", "bd3141d01dcc0626b6890b28da77167b");
    ("SpMV/phloem-static", "7ff99f125f97054ef8482b5368506aae");
    ("memops", "2ace40108d5a1f611497cdc3b2ee1fac");
    ("bfs/phloem-static/four-cores", "c821c420798a5518a90cf2d668bfc675");
    ("bfs/phloem-static/queue-caps", "7eaa38384e4073b47be261e357cf629b");
    ("bfs/phloem-static/telemetry", "fd8d30e2e107e02c7b8ec346d2d54651");
    ("bfs/phloem-static/faults-clean", "94c6d6188b4fe7d81db41db6d5282429");
    ("faulty/deadlock", "deadlock:574c51a09b827cf1fbd187f89715515c");
    ("faulty/livelock", "livelock:56453335314afe95ce24a6fd6f14a14a");
    ("faulty/budget-exhausted", "budget-exhausted:72c2314ea73bf8bd32f0dd8092d87789");
    ("BFS/manual/grid/q1=1", "9983cab271eb31447b88fad677efeb36");
    ("BFS/manual/grid/q1=2", "40ec099ce3e42c6405caa2213ef24a1c");
    ("BFS/manual/grid/q0,q1,q2=1", "9f215e9a4ffd2beab264e0f4de6b456b");
    ("BFS/manual/rmat/q1=1", "5033ddb7846402c9fce4ee6cf90fe3e3");
    ("BFS/manual/rmat/q1=2", "2fec1148e3bcbfdce970cfad119453aa");
    ("BFS/manual/rmat/q0,q1,q2=1", "89a965390e81d52e0e91433ac0cc76b3");
    ("SpMM/manual/ra-inputs=1", "e020285348bc470ec536e30d6ca4a8e7");
  ]

let test_case c =
  Alcotest.test_case c.name `Quick (fun () ->
      let want =
        match List.assoc_opt c.name golden with
        | Some d -> d
        | None -> Alcotest.failf "%s: no golden digest recorded" c.name
      in
      Alcotest.(check string) (c.name ^ ": digest") want (digest c))

let stepper_case c =
  Alcotest.test_case c.name `Quick (fun () ->
      Alcotest.(check (list string)) (c.name ^ ": engine = stepper") [] (stepper_differences c))

let threshold_case (c, kind) =
  Alcotest.test_case c.name `Quick (fun () ->
      let prefix = Forensics.kind_name kind ^ ":" in
      Alcotest.(check bool) (c.name ^ ": fails as " ^ prefix) true
        (String.starts_with ~prefix (digest c));
      Alcotest.(check (list string)) (c.name ^ ": engine = stepper") [] (stepper_differences c))

(* --- engine = stepper on random machines -------------------------------- *)

(* A random small graph, kernel, variant and machine: queue capacities
   overridden down to 1-3, a ROB that is off powers of two or larger than
   the default, few RA MSHRs, 1-4 cores with random thread placement, and
   on some runs a fault plan. *)
type machine_case = {
  m_graph : string;
  m_kernel : string;
  m_variant : string;
  m_pipe : Types.pipeline;
  m_inputs : (string * Types.value array) list;
  m_cfg : Config.t;
  m_thread_core : int array;
  m_queue_caps : (int * int) list;
  m_plan : Faults.plan option;
}

let print_machine_case m =
  Printf.sprintf "%s on %s (%s): rob %d, ra_mshrs %d, cores %d, placement [%s], caps [%s], faults %s"
    m.m_kernel m.m_graph m.m_variant m.m_cfg.Config.rob_size m.m_cfg.Config.ra_mshrs
    m.m_cfg.Config.n_cores
    (String.concat ";" (Array.to_list (Array.map string_of_int m.m_thread_core)))
    (String.concat ";" (List.map (fun (q, c) -> Printf.sprintf "q%d=%d" q c) m.m_queue_caps))
    (match m.m_plan with
    | Some p -> Printf.sprintf "%s key %d" (Faults.to_string p) p.Faults.fp_key
    | None -> "none")

let gen_machine_case =
  let open QCheck.Gen in
  let* graph_seed = int_range 1 1000 in
  let* graph =
    oneof
      [
        (let* w = int_range 3 9 and* h = int_range 3 8 in
         return
           ( Printf.sprintf "grid %dx%d seed %d" w h graph_seed,
             Phloem_graph.Gen.grid ~width:w ~height:h ~seed:graph_seed ));
        (let* scale = int_range 4 6 and* ef = int_range 2 4 in
         return
           ( Printf.sprintf "rmat scale %d x%d seed %d" scale ef graph_seed,
             Phloem_graph.Gen.rmat ~scale ~edge_factor:ef ~seed:graph_seed ));
      ]
  in
  let graph_name, g = graph in
  let* b = oneofl [ Bfs.bind g; Cc.bind g; Prd.bind g; Radii.bind g ] in
  let* variant = oneofl [ "serial"; "data-parallel"; "phloem-static"; "manual" ] in
  let serial = b.Workload.b_serial in
  let* threads = int_range 2 4 in
  let p, inputs =
    match variant with
    | "data-parallel" -> b.Workload.b_data_parallel ~threads
    | "phloem-static" -> (
      match static (fst serial) with Some p -> (p, snd serial) | None -> serial)
    | "manual" -> Option.value ~default:serial b.Workload.b_manual
    | _ -> serial
  in
  let n_threads = List.length p.Types.p_stages in
  let n_queues = List.length p.Types.p_queues in
  let* queue_caps =
    flatten_l
      (List.init n_queues (fun q ->
           let* cap = int_range 1 3 and* set = bool in
           return (if set then [ (q, cap) ] else [])))
  in
  let* rob_size = oneofl [ 16; 17; 24; 100; 224; 300 ] in
  let* ra_mshrs = oneofl [ 1; 2; 3; 8 ] in
  let* n_cores = int_range 1 4 in
  let* thread_core = array_repeat n_threads (int_range 0 (n_cores - 1)) in
  let thread = int_range 0 (Int.max 0 (n_threads - 1)) in
  let spec =
    oneof
      [
        (let* level = int_range 0 4 and* extra = int_range 1 100 in
         return (Faults.Latency_spike { level; extra; prob = 0.3 }));
        return (Faults.Predictor_poison { prob = 0.2 });
        (let* thread = thread and* period = int_range 20 300 in
         let* duration = int_range 1 (period - 1) in
         return (Faults.Thread_stall { thread; period; duration }));
        return (Faults.Queue_drop { queue = -1; prob = 0.2 });
        (let* queue = int_range 0 (Int.max 0 (n_queues - 1)) in
         return (Faults.Queue_dup { queue; prob = 0.02 }));
        (let* thread = thread and* after_retired = int_range 0 400 in
         return (Faults.Thread_kill { thread; after_retired }));
      ]
  in
  let* plan =
    frequency
      [
        (2, return None);
        ( 1,
          let* key = int_range 0 10_000 and* specs = list_size (int_range 1 3) spec in
          return (Some (Faults.plan ~key specs)) );
      ]
  in
  return
    {
      m_graph = graph_name;
      m_kernel = b.Workload.b_name;
      m_variant = variant;
      m_pipe = p;
      m_inputs = inputs;
      m_cfg = { Config.default with rob_size; ra_mshrs; n_cores };
      m_thread_core = thread_core;
      m_queue_caps = List.concat queue_caps;
      m_plan = plan;
    }

let prop_stepper_random_machines =
  QCheck.Test.make ~name:"engine = stepper on random machines" ~count:30 ~long_factor:20
    (QCheck.make ~print:print_machine_case gen_machine_case)
    (fun m ->
      match
        Stepper.compare_replays ~cfg:m.m_cfg ~thread_core:m.m_thread_core
          ~queue_caps:m.m_queue_caps ?plan:m.m_plan m.m_pipe
          (Sim.functional ~inputs:m.m_inputs m.m_pipe)
      with
      | [] -> true
      | diffs -> QCheck.Test.fail_reportf "%s" (String.concat "\n" diffs))

(* --- allocation guard ---------------------------------------------------- *)

(* The cycle loop allocates nothing per simulated cycle: what [Engine.run]
   takes from the minor heap is its per-run set-up plus rare events (a
   DRAM access, a barrier completing).
   Words per cycle on this replay of CC's static pipeline: 0.4 with the
   allocation-free loop, 94 before it; the bound sits between. The
   per-replay scratch is sized by the instruction window, not the trace,
   so on this trace of over 256 ops per thread it comes from the minor
   heap and is counted here. *)
let max_minor_words_per_cycle = 16.0

let cc_static g =
  let p, inputs = (Cc.bind g).Workload.b_serial in
  let p = match static p with Some p -> p | None -> Alcotest.fail "cc static_flow" in
  (p, (Sim.functional ~inputs p).Interp.r_trace)

let test_alloc_guard () =
  let p, trace = cc_static (Phloem_graph.Gen.grid ~width:40 ~height:40 ~seed:5) in
  Array.iter
    (fun th ->
      Alcotest.(check bool) "more ops per thread than a minor-heap block holds" true
        (Trace.length th > 256))
    trace.Trace.threads;
  let before = Gc.minor_words () in
  let r = Engine.run p trace in
  let words = Gc.minor_words () -. before in
  let per_cycle = words /. float_of_int r.Engine.cycles in
  if per_cycle > max_minor_words_per_cycle then
    Alcotest.failf "Engine.run allocated %.1f minor words per simulated cycle \
                    (%.0f words over %d cycles); the bound is %.1f"
      per_cycle words r.Engine.cycles max_minor_words_per_cycle

(* Words [Engine.run] allocates directly in the major heap (blocks too
   large for the minor heap). *)
let major_direct p trace =
  let _, promoted0, major0 = Gc.counters () in
  ignore (Engine.run p trace);
  let _, promoted1, major1 = Gc.counters () in
  major1 -. major0 -. (promoted1 -. promoted0)

(* Those words do not depend on the trace's length: the scratch is sized by
   the window and the queues. Two replays of CC's static pipeline on grids
   whose traces differ at least 4x in length must allocate the same, up to
   a small constant, once a first replay has built the domain's caches and
   predictor. *)
let max_major_words_spread = 64.0

let test_major_words_flat () =
  let small_p, small = cc_static (Phloem_graph.Gen.grid ~width:20 ~height:20 ~seed:5) in
  let large_p, large = cc_static (Phloem_graph.Gen.grid ~width:40 ~height:40 ~seed:5) in
  let ops t = Trace.op_count t in
  Alcotest.(check bool) "traces differ at least 4x in length" true (ops large >= 4 * ops small);
  ignore (Engine.run small_p small);
  let ws = major_direct small_p small and wl = major_direct large_p large in
  if Float.abs (wl -. ws) > max_major_words_spread then
    Alcotest.failf "Engine.run allocated %.0f major-heap words on %d ops and %.0f on %d ops; \
                    the spread bound is %.0f"
      ws (ops small) wl (ops large) max_major_words_spread

(* A replay resets its domain's caches and predictor instead of building
   them: the first replay on a domain allocates them (79.6k words at the
   default config), a second one only its per-run set-up. *)
let max_major_words_warm = 4096.0

let test_major_words_warm () =
  let p, trace = cc_static (Phloem_graph.Gen.grid ~width:20 ~height:20 ~seed:5) in
  ignore (Engine.run p trace);
  let w = major_direct p trace in
  if w >= max_major_words_warm then
    Alcotest.failf "a second replay on the domain allocated %.0f major-heap words; the bound is %.0f"
      w max_major_words_warm

(* --- saturated dependences -------------------------------------------------

   A dependence column stores distances up to [Trace.max_distance]; a
   producer further back is stored at that distance. Here the last ops
   read [x], computed before a loop of over 70,000 ops: the engine must
   still equal the stepper, which checks on its own that every saturated
   producer has retired. *)
let saturated_pipe () =
  serial "saturated"
    ~arrays:[ int_array "a" 1; int_array "out" 1 ]
    [
      "x" <-- (load "a" (int 0) +! int 1);
      "s" <-- int 0;
      for_ "i" (int 0) (int 18_000) [ "s" <-- (v "s" +! v "i") ];
      store "out" (int 0) (v "x" +! v "s");
    ]

let test_saturated_dependence () =
  let p = saturated_pipe () in
  let fr = Sim.functional ~inputs:[ ("a", [| Types.Vint 41 |]) ] p in
  let th = fr.Interp.r_trace.Trace.threads.(0) in
  Alcotest.(check bool) "over 70,000 ops" true (Trace.length th > 70_000);
  let saturated col =
    List.exists
      (fun i -> Bytes.get_uint16_ne col (2 * i) = Trace.max_distance)
      (List.init (Trace.length th) Fun.id)
  in
  Alcotest.(check bool) "a dependence saturates" true
    (List.exists saturated [ th.Trace.dep1; th.Trace.dep2; th.Trace.dep3 ]);
  Alcotest.(check (list string)) "engine = stepper" [] (Stepper.compare_replays p fr)

(* The window must hold fewer ops than the saturation distance, or a
   saturated dependence could name an op still in flight. *)
let test_window_guard () =
  let p = saturated_pipe () in
  let trace = (Sim.functional ~inputs:[ ("a", [| Types.Vint 41 |]) ] p).Interp.r_trace in
  let run rob_size = Engine.run ~cfg:{ Config.default with rob_size } p trace in
  Alcotest.check_raises "rob_size 65535"
    (Invalid_argument "Engine.run: rob_size 65535: the window must hold fewer than 65535 ops")
    (fun () -> ignore (run 65535));
  Alcotest.(check bool) "rob_size 65534 replays" true ((run 65534).Engine.cycles > 0)

let () =
  let golden_kernels = kernel_cases ()
  and golden_machine = machine_cases ()
  and golden_ring = ring_cases () in
  Alcotest.run "engine"
    [
      ("golden kernels", List.map test_case golden_kernels);
      ("golden machine", List.map test_case golden_machine);
      ("golden ring", List.map test_case golden_ring);
      ( "stepper",
        List.map stepper_case (golden_kernels @ golden_machine @ golden_ring)
        @ List.map threshold_case (threshold_cases ())
        @ [
            QCheck_alcotest.to_alcotest ~speed_level:`Quick
              ~rand:(Random.State.make [| 22 |])
              prop_stepper_random_machines;
          ] );
      ( "allocation",
        [
          Alcotest.test_case "minor words per cycle" `Quick test_alloc_guard;
          Alcotest.test_case "major words independent of trace length" `Quick
            test_major_words_flat;
          Alcotest.test_case "major words of a second replay" `Quick test_major_words_warm;
        ] );
      ( "trace encoding",
        [
          Alcotest.test_case "saturated dependence: engine = stepper" `Quick
            test_saturated_dependence;
          Alcotest.test_case "window guard rejects rob_size 65535" `Quick test_window_guard;
        ] );
    ]
