(* Tests for bottleneck attribution (Pipette.Analysis), the refined
   per-queue stall counters behind it (Engine.attribution), the benchmark
   regression differ (Phloem_harness.Regress), and the JSON parser that
   feeds it. *)

open Phloem_ir
open Builder
open Pipette
module Json = Phloem_util.Json
module Regress = Phloem_harness.Regress

(* A deliberately unbalanced 2-stage pipeline: the producer enqueues items
   as fast as it can into an undersized queue (capacity 2); the consumer
   burns a dependent ALU chain per item. The consumer must come out as the
   bottleneck stage and queue 0 as the critical queue, with the stall mass
   on the producer side (blocked on a full queue). *)
let unbalanced n =
  pipeline "unbalanced"
    ~params:[ ("n", Types.Vint n) ]
    ~queues:[ queue ~capacity:2 0 ]
    [
      stage "prod" [ for_ "i" (int 0) (v "n") [ enq 0 (v "i") ] ];
      stage "cons"
        [
          "acc" <-- int 0;
          for_ "i" (int 0) (v "n")
            [
              "x" <-- deq 0;
              for_ "j" (int 0) (int 6)
                [ "acc" <-- ((v "acc" +! v "x") *! int 3 %! int 251) ];
            ];
        ];
    ]

let run_unbalanced () = Sim.run (unbalanced 300)

let test_bottleneck_diagnosis () =
  let r = run_unbalanced () in
  let rep = Sim.analyze ~stage_names:[| "prod"; "cons" |] r in
  Alcotest.(check (option int)) "consumer is the bottleneck" (Some 1) rep.Analysis.r_bottleneck;
  Alcotest.(check (option int)) "queue 0 is critical" (Some 0) rep.Analysis.r_critical_queue;
  let q = rep.Analysis.r_queues.(0) in
  Alcotest.(check bool) "stall mass is on the producer side (queue full)" true
    (q.Analysis.q_full > q.Analysis.q_empty);
  Alcotest.(check bool) "producer observed" true (List.mem 0 q.Analysis.q_producers);
  Alcotest.(check bool) "consumer observed" true (List.mem 1 q.Analysis.q_consumers);
  Alcotest.(check bool) "headroom estimate is at least 1" true
    (rep.Analysis.r_headroom >= 1.0);
  Alcotest.(check bool) "diagnosis names the critical queue" true
    (List.exists
       (fun d ->
         let re = Str.regexp_string "queue 0" in
         try ignore (Str.search_forward re d 0); true with Not_found -> false)
       rep.Analysis.r_diagnosis)

let test_occupancy_hist_sums_to_cycles () =
  let r = run_unbalanced () in
  let t = r.Sim.sr_timing in
  Array.iter
    (fun (q : Engine.queue_attr) ->
      Alcotest.(check int)
        (Printf.sprintf "queue %d histogram buckets sum to cycles" q.Engine.qa_id)
        t.Engine.cycles
        (Array.fold_left ( + ) 0 q.Engine.qa_occ_hist);
      Alcotest.(check int)
        (Printf.sprintf "queue %d histogram has capacity+1 buckets" q.Engine.qa_id)
        (q.Engine.qa_capacity + 1)
        (Array.length q.Engine.qa_occ_hist))
    t.Engine.attribution.Engine.at_queues

(* The refined counters must partition the coarse 4-way split exactly:
   that is what makes the --profile report trustworthy against the numbers
   every other tool prints. *)
let test_attribution_reconciles () =
  let r = run_unbalanced () in
  let t = r.Sim.sr_timing in
  let a = t.Engine.attribution in
  let sum = Array.fold_left ( + ) 0 in
  for i = 0 to t.Engine.n_threads - 1 do
    let qf = Array.fold_left (fun acc q -> acc + q.Engine.qa_full.(i)) 0 a.Engine.at_queues in
    let qe = Array.fold_left (fun acc q -> acc + q.Engine.qa_empty.(i)) 0 a.Engine.at_queues in
    Alcotest.(check int)
      (Printf.sprintf "thread %d: full + empty + barrier = queue class" i)
      a.Engine.at_queue.(i)
      (qf + qe + a.Engine.at_barrier.(i));
    Alcotest.(check int)
      (Printf.sprintf "thread %d: backend levels sum to backend class" i)
      a.Engine.at_backend.(i)
      (sum a.Engine.at_backend_level.(i))
  done;
  Alcotest.(check int) "issue sums to aggregate" t.Engine.issue_cycles (sum a.Engine.at_issue);
  Alcotest.(check int) "backend sums to aggregate" t.Engine.backend_cycles (sum a.Engine.at_backend);
  Alcotest.(check int) "queue sums to aggregate" t.Engine.queue_cycles (sum a.Engine.at_queue);
  Alcotest.(check int) "other sums to aggregate" t.Engine.other_cycles (sum a.Engine.at_other)

let test_analysis_json_parses () =
  let r = run_unbalanced () in
  let rep = Sim.analyze r in
  let j = Json.of_string (Json.to_string (Analysis.json_of_report rep)) in
  match Json.member "cycles" j with
  | Some (Json.Int c) -> Alcotest.(check int) "cycles round-trips" (Sim.cycles r) c
  | _ -> Alcotest.fail "analysis JSON lost the cycles field"

(* --- the JSON parser (Phloem_util.Json.of_string) --- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("a", Json.Int 42);
        ("b", Json.Float 1.5);
        ("c", Json.Str "he \"said\"\n\t\\x");
        ("d", Json.List [ Json.Null; Json.Bool true; Json.Bool false ]);
        ("e", Json.Obj [ ("nested", Json.List [ Json.Int (-7) ]) ]);
        ("f", Json.Str "unicode: \xe2\x86\x92");
      ]
  in
  Alcotest.(check bool) "parse (to_string v) = v" true
    (Json.of_string (Json.to_string v) = v)

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | exception Json.Parse_error _ -> ()
      | _ -> Alcotest.failf "accepted malformed JSON: %s" s)
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated"; "{\"a\" 1}" ]

let test_json_member_helpers () =
  let j = Json.of_string "{\"x\": {\"y\": 3}, \"z\": 2.5}" in
  (match Option.bind (Json.member "x" j) (Json.member "y") with
  | Some (Json.Int 3) -> ()
  | _ -> Alcotest.fail "member lookup failed");
  Alcotest.(check (option (float 1e-9))) "to_float_opt on float"
    (Some 2.5)
    (Option.bind (Json.member "z" j) Json.to_float_opt);
  Alcotest.(check (option (float 1e-9))) "member miss" None
    (Option.bind (Json.member "missing" j) Json.to_float_opt)

(* --- the regression differ --- *)

(* A minimal report in the shape Experiments.write_json_report emits. *)
let report ~cycles ~speedup ~energy =
  Json.Obj
    [
      ( "benchmarks",
        List.map
          (fun () ->
            Json.Obj
              [
                ("benchmark", Json.Str "BFS");
                ( "inputs",
                  Json.List
                    [
                      Json.Obj
                        [
                          ("input", Json.Str "internet");
                          ( "runs",
                            Json.Obj
                              [
                                ( "phloem_static",
                                  Json.Obj
                                    [
                                      ("cycles", Json.Int cycles);
                                      ("speedup", Json.Float speedup);
                                      ( "energy_nj",
                                        Json.Obj [ ("total", Json.Float energy) ] );
                                    ] );
                                ("manual", Json.Null);
                              ] );
                        ];
                    ] );
              ])
          [ () ]
        |> fun l -> Json.List l );
    ]

let test_regress_flags_cycle_regression () =
  let old_j = report ~cycles:10000 ~speedup:2.0 ~energy:500.0 in
  let bad = report ~cycles:11000 ~speedup:2.0 ~energy:500.0 in
  let o = Regress.compare_json ~old_j ~new_j:bad () in
  Alcotest.(check bool) "+10% cycles regresses" true (Regress.regressed o);
  Alcotest.(check int) "exactly one regression" 1 (List.length o.Regress.o_regressions);
  let d = List.hd o.Regress.o_regressions in
  Alcotest.(check string) "the cycles metric" "BFS/internet/phloem_static/cycles"
    d.Regress.d_key

let test_regress_tolerates_noise () =
  let old_j = report ~cycles:10000 ~speedup:2.0 ~energy:500.0 in
  let ok = report ~cycles:10200 ~speedup:1.96 ~energy:520.0 in
  let o = Regress.compare_json ~old_j ~new_j:ok () in
  Alcotest.(check bool) "+2% cycles within threshold" false (Regress.regressed o);
  Alcotest.(check int) "all shared metrics compared" 3 (List.length o.Regress.o_deltas)

let test_regress_flags_speedup_and_energy () =
  let old_j = report ~cycles:10000 ~speedup:2.0 ~energy:500.0 in
  let bad = report ~cycles:10000 ~speedup:1.7 ~energy:600.0 in
  let o = Regress.compare_json ~old_j ~new_j:bad () in
  Alcotest.(check int) "speedup drop and energy rise both flagged" 2
    (List.length o.Regress.o_regressions)

let test_regress_reports_missing_series () =
  let old_j = report ~cycles:10000 ~speedup:2.0 ~energy:500.0 in
  let o = Regress.compare_json ~old_j ~new_j:(Json.Obj [ ("benchmarks", Json.List []) ]) () in
  Alcotest.(check bool) "missing series is not a regression" false (Regress.regressed o);
  Alcotest.(check (list string)) "missing series listed"
    [ "BFS/internet/phloem_static" ] o.Regress.o_missing;
  ignore (Regress.render o)

(* --- Runner.of_run with a degenerate serial baseline --- *)

let test_of_run_zero_serial_cycles () =
  let r = Sim.run (unbalanced 10) in
  let m =
    Phloem_harness.Runner.of_run ~variant:"t" ~serial_cycles:0 ~ok:true r
  in
  let finite x =
    match classify_float x with FP_infinite | FP_nan -> false | _ -> true
  in
  List.iter
    (fun (name, x) ->
      Alcotest.(check bool) (name ^ " is finite") true (finite x))
    [
      ("speedup", m.Phloem_harness.Runner.m_speedup);
      ("issue", m.Phloem_harness.Runner.m_issue);
      ("backend", m.Phloem_harness.Runner.m_backend);
      ("queue", m.Phloem_harness.Runner.m_queue);
      ("other", m.Phloem_harness.Runner.m_other);
    ]

let () =
  Alcotest.run "analysis"
    [
      ( "attribution",
        [
          Alcotest.test_case "undersized queue is diagnosed" `Quick
            test_bottleneck_diagnosis;
          Alcotest.test_case "occupancy histograms sum to cycles" `Quick
            test_occupancy_hist_sums_to_cycles;
          Alcotest.test_case "refined counters reconcile with aggregates" `Quick
            test_attribution_reconciles;
          Alcotest.test_case "analysis JSON parses back" `Quick
            test_analysis_json_parses;
        ] );
      ( "json-parser",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
          Alcotest.test_case "member helpers" `Quick test_json_member_helpers;
        ] );
      ( "regress",
        [
          Alcotest.test_case "flags a 10% cycle regression" `Quick
            test_regress_flags_cycle_regression;
          Alcotest.test_case "tolerates 2% noise" `Quick test_regress_tolerates_noise;
          Alcotest.test_case "flags speedup and energy regressions" `Quick
            test_regress_flags_speedup_and_energy;
          Alcotest.test_case "reports missing series" `Quick
            test_regress_reports_missing_series;
        ] );
      ( "runner",
        [
          Alcotest.test_case "zero serial cycles stays finite" `Quick
            test_of_run_zero_serial_cycles;
        ] );
    ]
