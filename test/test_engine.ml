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
   livelock and in budget exhaustion. *)

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
  |> List.map (fun (name, p, inputs) ->
         (name, fun () -> outcome (fun () -> Sim.run ~inputs p)))

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

let machine_cases () =
  [
    ( "memops",
      fun () -> outcome (fun () -> Sim.run ~inputs:mem_ops_inputs (mem_ops_pipe ())) );
    ( "bfs/phloem-static/four-cores",
      fun () ->
        let p, inputs = bfs_static () in
        outcome (fun () ->
            Sim.run ~cfg:Config.four_cores ~thread_core:[| 0; 1; 2; 3 |] ~inputs p) );
    ( "bfs/phloem-static/queue-caps",
      fun () ->
        let p, inputs = bfs_static () in
        outcome (fun () ->
            Sim.simulate ~queue_caps:[ (0, 2); (1, 64) ] p
              (Sim.functional ~inputs p)) );
    ( "bfs/phloem-static/telemetry",
      fun () ->
        let p, inputs = bfs_static () in
        let telemetry = Telemetry.create ~interval:256 () in
        outcome ~telemetry (fun () -> Sim.run ~telemetry ~inputs p) );
    ( "bfs/phloem-static/faults-clean",
      fun () ->
        let p, inputs = bfs_static () in
        let plan =
          Faults.plan ~key:7
            [
              Faults.Latency_spike { level = 4; extra = 200; prob = 0.5 };
              Faults.Latency_spike { level = 0; extra = 30; prob = 0.5 };
              Faults.Predictor_poison { prob = 0.25 };
              Faults.Thread_stall { thread = 1; period = 500; duration = 50 };
              Faults.Queue_drop { queue = -1; prob = 0.1 };
              Faults.Queue_dup { queue = 0; prob = 0.01 };
            ]
        in
        outcome (fun () -> Sim.run ~faults:(Faults.create plan) ~inputs p) );
    ( "faulty/deadlock",
      fun () ->
        let plan =
          Faults.plan ~key:11 [ Faults.Thread_kill { thread = 0; after_retired = 10 } ]
        in
        outcome (fun () -> Sim.run ~faults:(Faults.create plan) (faulty_pipe 64)) );
    ( "faulty/livelock",
      fun () ->
        let plan = Faults.plan ~key:13 [ Faults.Queue_drop { queue = 0; prob = 1.0 } ] in
        outcome (fun () ->
            Sim.run ~faults:(Faults.create plan) ~watchdog:3000 (faulty_pipe 64)) );
    ( "faulty/budget-exhausted",
      fun () -> outcome (fun () -> Sim.run ~cycle_budget:100 (faulty_pipe 64)) );
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
  let manual (b : Workload.bound) =
    match b.Workload.b_manual with
    | Some m -> m
    | None -> Alcotest.fail (b.Workload.b_name ^ ": no manual pipeline")
  in
  let case name (b : Workload.bound) queue_caps =
    ( name,
      fun () ->
        let p, inputs = manual b in
        outcome (fun () -> Sim.simulate ~queue_caps p (Sim.functional ~inputs p)) )
  in
  let bfs graph_name g =
    let b = Bfs.bind g in
    List.map
      (fun (caps_name, caps) -> case ("BFS/manual/" ^ graph_name ^ "/" ^ caps_name) b caps)
      [
        ("q1=1", [ (1, 1) ]);
        ("q1=2", [ (1, 2) ]);
        ("q0,q1,q2=1", [ (0, 1); (1, 1); (2, 1) ]);
      ]
  in
  bfs "grid" (grid ())
  @ bfs "rmat" (Phloem_graph.Gen.rmat ~scale:8 ~edge_factor:4 ~seed:7)
  @ [ case "SpMM/manual/ra-inputs=1" (Spmm.bind a bt) [ (0, 1); (1, 1); (2, 1); (3, 1) ] ]

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

let test_case (name, run) =
  Alcotest.test_case name `Quick (fun () ->
      let want =
        match List.assoc_opt name golden with
        | Some d -> d
        | None -> Alcotest.failf "%s: no golden digest recorded" name
      in
      Alcotest.(check string) (name ^ ": digest") want (run ()))

(* --- allocation guard ---------------------------------------------------- *)

(* The cycle loop allocates nothing per simulated cycle: what [Engine.run]
   takes from the minor heap is its per-run set-up plus rare events (a
   DRAM access, a barrier completing).
   Words per cycle on this replay of CC's static pipeline: 0.4 with the
   allocation-free loop, 94 before it; the bound sits between. The trace
   is large enough that every per-op array goes straight to the major
   heap and so is not counted here. *)
let max_minor_words_per_cycle = 16.0

let test_alloc_guard () =
  let b = Cc.bind (Phloem_graph.Gen.grid ~width:40 ~height:40 ~seed:5) in
  let p, inputs = b.Workload.b_serial in
  let p = match static p with Some p -> p | None -> Alcotest.fail "cc static_flow" in
  let fr = Sim.functional ~inputs p in
  let trace = fr.Interp.r_trace in
  Array.iter
    (fun th ->
      Alcotest.(check bool) "per-op arrays exceed a minor-heap block" true
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

let () =
  Alcotest.run "engine"
    [
      ("golden kernels", List.map test_case (kernel_cases ()));
      ("golden machine", List.map test_case (machine_cases ()));
      ("golden ring", List.map test_case (ring_cases ()));
      ("allocation", [ Alcotest.test_case "minor words per cycle" `Quick test_alloc_guard ]);
    ]
