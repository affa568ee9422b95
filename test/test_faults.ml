(* Resilience tests: engine deadlock forensics (wait-cycle naming,
   deadlock vs budget exhaustion), fault-plan parsing and fixed-key replay
   determinism, the static check-deadlock pass, and harness degradation (a
   deadlocking variant leaves an error record instead of aborting the
   sweep). *)

open Phloem_ir.Builder
module Forensics = Phloem_ir.Forensics
module Faults = Pipette.Faults

let has needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* Two stages that each fill the other's undersized queue before draining
   their own: the functional (unbounded-queue) semantics complete, the
   bounded timing replay wedges with both producers blocked on a full
   queue whose only consumer is the other producer. *)
let ring_pipeline ?(capacity = 2) () =
  let n = 8 in
  pipeline "ring"
    ~queues:[ queue ~capacity 0; queue ~capacity 1 ]
    [
      stage "left"
        [
          for_ "i" (int 0) (int n) [ enq 0 (v "i") ];
          for_ "i" (int 0) (int n) [ "x" <-- deq 1 ];
        ];
      stage "right"
        [
          for_ "i" (int 0) (int n) [ enq 1 (v "i") ];
          for_ "i" (int 0) (int n) [ "y" <-- deq 0 ];
        ];
    ]

(* A healthy 2-stage producer/consumer writing out.(i) = 2*i. *)
let healthy_pipeline ?(n = 64) () =
  pipeline "healthy"
    ~queues:[ queue 0 ]
    ~arrays:[ int_array "out" n ]
    [
      stage "prod" [ for_ "i" (int 0) (int n) [ enq 0 (v "i" *! int 2) ] ];
      stage "cons"
        [ for_ "i" (int 0) (int n) [ "x" <-- deq 0; store "out" (v "i") (v "x") ] ];
    ]

(* --- engine forensics --- *)

let test_undersized_queue_deadlock () =
  match Pipette.Sim.run (ring_pipeline ()) with
  | _ -> Alcotest.fail "undersized ring completed"
  | exception Forensics.Pipeline_failure r ->
    Alcotest.(check string) "kind" "deadlock" (Forensics.kind_name r.Forensics.fr_kind);
    Alcotest.(check int) "exit code" 5 (Forensics.exit_code r.Forensics.fr_kind);
    Alcotest.(check int) "no faults injected" 0 r.Forensics.fr_injected;
    let names =
      List.map (fun (a, _) -> a.Forensics.ag_name) r.Forensics.fr_wait_cycle
    in
    Alcotest.(check bool) "cycle names left" true (List.mem "left" names);
    Alcotest.(check bool) "cycle names right" true (List.mem "right" names);
    let queues = List.map snd r.Forensics.fr_wait_cycle in
    Alcotest.(check bool)
      "cycle runs over q0 and q1" true
      (List.mem 0 queues && List.mem 1 queues);
    List.iter
      (fun (a, _) ->
        match a.Forensics.ag_blocked with
        | Forensics.On_queue_full _ -> ()
        | other ->
          Alcotest.failf "expected On_queue_full, got %s"
            (Forensics.blocked_to_string other))
      r.Forensics.fr_wait_cycle;
    (* the rendering names the chain and the report carries a diagnosis *)
    let text = Forensics.render r in
    Alcotest.(check bool) "render names the chain" true
      (has "cyclic wait chain" text);
    Alcotest.(check bool) "has a diagnosis" true (r.Forensics.fr_diagnosis <> [])

let test_ample_capacity_completes () =
  (* same ring with room for every in-flight token: completes *)
  let r = Pipette.Sim.run (ring_pipeline ~capacity:8 ()) in
  Alcotest.(check bool) "completes" true (Pipette.Sim.cycles r > 0)

let test_budget_vs_deadlock () =
  (* a healthy pipeline under a tiny budget is budget exhaustion (exit 7),
     not deadlock: progress was still being made *)
  (match Pipette.Sim.run ~cycle_budget:40 (healthy_pipeline ()) with
  | _ -> Alcotest.fail "tiny budget completed"
  | exception Forensics.Pipeline_failure r ->
    Alcotest.(check string) "kind" "budget-exhausted"
      (Forensics.kind_name r.Forensics.fr_kind);
    Alcotest.(check int) "exit code" 7 (Forensics.exit_code r.Forensics.fr_kind);
    Alcotest.(check bool) "no wait cycle claimed" true
      (r.Forensics.fr_wait_cycle = []));
  (* the same pipeline with an ample budget completes *)
  let r = Pipette.Sim.run ~cycle_budget:1_000_000 (healthy_pipeline ()) in
  Alcotest.(check bool) "ample budget completes" true (Pipette.Sim.cycles r > 0)

let test_kill_fault_deadlocks () =
  let plan = Faults.plan [ Faults.Thread_kill { thread = 0; after_retired = 5 } ] in
  match Pipette.Sim.run ~faults:(Faults.create plan) (healthy_pipeline ()) with
  | _ -> Alcotest.fail "killed producer completed"
  | exception Forensics.Pipeline_failure r ->
    Alcotest.(check string) "kind" "deadlock" (Forensics.kind_name r.Forensics.fr_kind);
    Alcotest.(check bool) "injection recorded" true (r.Forensics.fr_injected > 0);
    let killed =
      List.filter (fun a -> a.Forensics.ag_blocked = Forensics.Killed) r.Forensics.fr_agents
    in
    Alcotest.(check int) "one killed agent" 1 (List.length killed)

(* --- fault plans: parsing and replay determinism --- *)

let test_plan_roundtrip () =
  let s = "drop@q0:0.01,dup:0.02,spike@dram+400:0.05,stall@t1:1000x200,kill@t2:5000,poison:0.1" in
  match Faults.of_string s with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok plan ->
    Alcotest.(check string) "round-trips" s (Faults.to_string plan);
    (match Faults.of_string "spike@l9+4:0.5" with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "bad level accepted");
    (match Faults.of_string "stall@t0:100x100" with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "duration >= period accepted");
    (match Faults.of_string "drop:1.5" with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "probability > 1 accepted")

let run_with plan =
  let t = Faults.create plan in
  let r = Pipette.Sim.run ~faults:t (healthy_pipeline ~n:128 ()) in
  (Pipette.Sim.cycles r, Faults.total t)

let test_fixed_key_replay () =
  let plan =
    match Faults.of_string "drop:0.3,poison:0.2" with
    | Ok p -> { p with Faults.fp_key = 42 }
    | Error e -> Alcotest.failf "parse failed: %s" e
  in
  let c1, n1 = run_with plan in
  let c2, n2 = run_with plan in
  Alcotest.(check bool) "faults actually injected" true (n1 > 0);
  Alcotest.(check int) "replay: same cycles" c1 c2;
  Alcotest.(check int) "replay: same fault count" n1 n2;
  (* another key draws an independent stream but replays just as exactly *)
  let plan' = { plan with Faults.fp_key = 43 } in
  let c3, n3 = run_with plan' in
  let c3', n3' = run_with plan' in
  Alcotest.(check int) "second key replay: same cycles" c3 c3';
  Alcotest.(check int) "second key replay: same fault count" n3 n3'

let test_no_faults_is_clean () =
  let base = Pipette.Sim.cycles (Pipette.Sim.run (healthy_pipeline ())) in
  (* an empty-probability plan consumes no stream and changes nothing *)
  let plan = Faults.plan [ Faults.Predictor_poison { prob = 0.0 } ] in
  let t = Faults.create plan in
  let c = Pipette.Sim.cycles (Pipette.Sim.run ~faults:t (healthy_pipeline ())) in
  Alcotest.(check int) "zero-prob plan is byte-identical" base c;
  Alcotest.(check int) "nothing injected" 0 (Faults.total t)

(* --- static check-deadlock pass --- *)

let ctx = { Phloem.Pass.flags = Phloem.Pass.queues_only; cuts = [] }

let run_check p =
  let module P = (val Phloem.Passes.check_deadlock) in
  P.run ctx p

let test_check_deadlock_accepts_shipped () =
  let g = Phloem_graph.Gen.grid ~width:10 ~height:8 ~seed:5 in
  let b = Phloem_workloads.Bfs.bind g in
  let serial = fst b.Phloem_workloads.Workload.b_serial in
  (* the standard flow includes check-deadlock: compiling is the assertion *)
  let p = Phloem.Compile.static_flow ~stages:4 serial in
  Alcotest.(check bool) "bfs compiles through check-deadlock" true
    (List.length p.Phloem_ir.Types.p_stages >= 2);
  (* and the feasible ring plan (first op is an enqueue) is accepted *)
  let p' = run_check (ring_pipeline ()) in
  Alcotest.(check string) "feasible cycle accepted" "ring"
    p'.Phloem_ir.Types.p_name

let test_check_deadlock_rejects_cycle () =
  (* every member's first queue op dequeues a queue only the cycle fills;
     a stage's first queue op is the first one it executes, so a dequeue in
     an enqueued value, a for bound or an if condition comes before any
     enqueue in the statement or its body *)
  let wedge name a b =
    pipeline name ~queues:[ queue 0; queue 1 ] [ stage "a" a; stage "b" b ]
  in
  List.iter
    (fun p ->
      let name = p.Phloem_ir.Types.p_name in
      match run_check p with
      | _ -> Alcotest.failf "%s: wedged cycle accepted" name
      | exception Phloem.Pass.Reject msg ->
        Alcotest.(check bool) (name ^ " names the cycle") true (has "can never start" msg);
        Alcotest.(check bool) (name ^ " names members") true (has "a" msg && has "b" msg))
    [
      wedge "wedge" [ "x" <-- deq 0; enq 1 (v "x") ] [ "y" <-- deq 1; enq 0 (v "y") ];
      wedge "nested-wedge" [ enq 1 (deq 0) ] [ enq 0 (deq 1) ];
      wedge "header-wedge"
        [ for_ "i" (int 0) (deq 0) [ enq 1 (v "i") ] ]
        [ when_ (deq 1 >! int 0) [ enq 0 (int 1) ] ];
    ]

let test_check_deadlock_rejects_producerless () =
  let p =
    pipeline "starved"
      ~queues:[ queue 0 ]
      [ stage "only" [ "x" <-- deq 0 ] ]
  in
  match run_check p with
  | _ -> Alcotest.fail "producerless dequeue accepted"
  | exception Phloem.Pass.Reject msg ->
    Alcotest.(check bool) "names the queue" true (has "q0" msg);
    Alcotest.(check bool) "explains" true (has "ever enqueues" msg)

(* --- stall accounting --- *)

(* Every cycle a live thread spends inside a stall window counts, also the
   cycles the engine fast-forwards over. Under this plan (the one
   test_engine's "faults-clean" case replays) thread 1 of BFS's static
   pipeline stalls for the first 50 cycles of every 500 and lives past
   cycle 9550 of the 9572-cycle run: 20 windows, 1000 cycles. The stepper
   counts them one cycle at a time. *)
let test_stall_cycles_counted () =
  let b = Phloem_workloads.Bfs.bind (Phloem_graph.Gen.grid ~width:14 ~height:10 ~seed:3) in
  let serial, inputs = b.Phloem_workloads.Workload.b_serial in
  let p = Phloem.Compile.static_flow ~stages:4 serial in
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
  let f = Faults.create plan in
  let r = Pipette.Sim.run ~faults:f ~inputs p in
  Alcotest.(check int) "cycles" 9572 (Pipette.Sim.cycles r);
  Alcotest.(check int) "stall cycles" 1000 (Faults.counters f).Faults.c_stall_cycles;
  Alcotest.(check (list string))
    "engine = stepper" []
    (Stepper.compare_replays ~plan p (Pipette.Sim.functional ~inputs p))

(* --- harness degradation: a deadlocking variant leaves an error record --- *)

let degradable_bound () =
  let n = 32 in
  let serial_p =
    Phloem_ir.Builder.serial "degradable"
      ~arrays:[ int_array "out" n ]
      [ for_ "i" (int 0) (int n) [ store "out" (v "i") (v "i" *! int 2) ] ]
  in
  let reference = Array.init n (fun i -> i * 2) in
  {
    Phloem_workloads.Workload.b_name = "degradable";
    b_serial = (serial_p, []);
    b_data_parallel = (fun ~threads:_ -> (serial_p, []));
    b_manual = Some (ring_pipeline (), []);
    b_check_arrays = [ "out" ];
    b_reference = [ ("out", Phloem_workloads.Workload.vint reference) ];
    b_float_tolerance = 0.0;
  }

let test_run_all_degrades () =
  let a = Phloem_harness.Runner.run_all (degradable_bound ()) in
  let open Phloem_harness.Runner in
  Alcotest.(check bool) "serial measured" true (a.serial.m_cycles > 0);
  Alcotest.(check bool) "data-parallel survives" true (a.data_parallel <> None);
  Alcotest.(check bool) "deadlocked manual is absent" true (a.manual = None);
  (match List.find_opt (fun f -> f.f_variant = "manual") a.failures with
  | Some f ->
    Alcotest.(check string) "failure kind" "deadlock" f.f_kind;
    Alcotest.(check bool) "report embedded" true (has "cyclic wait chain" f.f_message)
  | None -> Alcotest.fail "no failure record for the deadlocked manual variant");
  (* the JSON record carries the errors array *)
  let j = json_of_all_runs a in
  (match Phloem_util.Json.member "errors" j with
  | Some (Phloem_util.Json.List (_ :: _)) -> ()
  | _ -> Alcotest.fail "errors array missing from JSON");
  (* only expected failures become records: a bug in a variant's binding
     propagates instead of hiding in the errors array *)
  let buggy =
    { (degradable_bound ()) with
      Phloem_workloads.Workload.b_data_parallel =
        (fun ~threads:_ -> raise Not_found) }
  in
  Alcotest.check_raises "unexpected exception propagates" Not_found (fun () ->
      ignore (run_all buggy))

let () =
  Alcotest.run "faults"
    [
      ( "forensics",
        [
          Alcotest.test_case "undersized ring deadlocks with wait cycle" `Quick
            test_undersized_queue_deadlock;
          Alcotest.test_case "ample capacity completes" `Quick
            test_ample_capacity_completes;
          Alcotest.test_case "budget exhaustion vs deadlock" `Quick
            test_budget_vs_deadlock;
          Alcotest.test_case "kill fault starves into deadlock" `Quick
            test_kill_fault_deadlocks;
        ] );
      ( "fault plans",
        [
          Alcotest.test_case "plan parse / round-trip" `Quick test_plan_roundtrip;
          Alcotest.test_case "fixed-key replay determinism" `Quick
            test_fixed_key_replay;
          Alcotest.test_case "zero-prob plan is clean" `Quick test_no_faults_is_clean;
          Alcotest.test_case "stall cycles count fast-forwarded cycles" `Quick
            test_stall_cycles_counted;
        ] );
      ( "check-deadlock",
        [
          Alcotest.test_case "accepts shipped kernels" `Quick
            test_check_deadlock_accepts_shipped;
          Alcotest.test_case "rejects wedged cycle" `Quick
            test_check_deadlock_rejects_cycle;
          Alcotest.test_case "rejects producerless dequeue" `Quick
            test_check_deadlock_rejects_producerless;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "run_all records a deadlocked variant" `Quick
            test_run_all_degrades;
        ] );
    ]
