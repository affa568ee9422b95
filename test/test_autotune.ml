(* Tests for the analysis-guided autotuner: the directed move grammar on
   synthetic bottleneck reports (one per verdict), canonical config
   digests, frontier dedup, PGO's serial fallback, and byte-identical
   outcomes across pool sizes. *)

open Phloem
module A = Pipette.Analysis
module Json = Phloem_util.Json

let mk_cut ?(prefetch = false) id =
  { Costmodel.cut_loads = [ id ]; cut_prefetch = prefetch; cut_score = 1.0 }

let space =
  {
    Autotune.sp_cut_pool = [ mk_cut 0; mk_cut 1; mk_cut 2 ];
    sp_max_queue_cap = 192;
    sp_max_replicas = 2;
    sp_max_cores = 4;
    sp_headroom_threshold = 1.05;
  }

let base_config =
  {
    Autotune.at_cuts = [ mk_cut 0 ];
    at_queue_caps = [];
    at_chain = true;
    at_replicas = 1;
    at_cores = 1;
  }

(* --- synthetic bottleneck reports ---------------------------------- *)

let mk_stage ~thread ~issue ~backend ?(backend_level = [| 0; 0; 0; 0; 0 |])
    ~qfull ~qempty () : A.stage_report =
  {
    A.st_thread = thread;
    st_name = Printf.sprintf "s%d" thread;
    st_issue = issue;
    st_backend = backend;
    st_backend_level = backend_level;
    st_queue_full = qfull;
    st_queue_empty = qempty;
    st_barrier = 0;
    st_other = 0;
    st_total = issue + backend + qfull + qempty;
    st_service = issue + backend;
  }

let mk_queue ~id ~cap ~full ~empty () : A.queue_report =
  {
    A.q_id = id;
    q_capacity = cap;
    q_full = full;
    q_empty = empty;
    q_enqs = 100;
    q_deqs = 100;
    q_producers = [ 0 ];
    q_consumers = [ 1 ];
    q_occ_hist = Array.make (cap + 1) 0;
    q_mean_occ = 0.0;
    q_frac_full = 0.0;
    q_frac_empty = 0.0;
  }

let mk_report ~cycles ~stages ~queues ~bottleneck ~critical ~headroom :
    A.report =
  {
    A.r_cycles = cycles;
    r_stages = stages;
    r_queues = queues;
    r_bottleneck = bottleneck;
    r_critical_queue = critical;
    r_headroom = headroom;
    r_diagnosis = [];
  }

let move_strings ms =
  List.map (fun (m, _) -> Autotune.move_to_string m) ms

let check_moves name expected ms =
  Alcotest.(check (list string)) name expected (move_strings ms)

(* Producers blocked on a full q3: deepen it, replicate past it, add the
   unused cuts, toggle chaining — in that order. *)
let test_moves_backpressure () =
  let r =
    mk_report ~cycles:1000
      ~stages:
        [|
          mk_stage ~thread:0 ~issue:200 ~backend:100 ~qfull:400 ~qempty:0 ();
          mk_stage ~thread:1 ~issue:600 ~backend:100 ~qfull:0 ~qempty:0 ();
        |]
      ~queues:[| mk_queue ~id:3 ~cap:24 ~full:400 ~empty:0 () |]
      ~bottleneck:(Some 1) ~critical:(Some 3) ~headroom:2.0
  in
  Alcotest.(check string)
    "classified as backpressure" "queue-bound(q3, backpressure)"
    (A.verdict_to_string (A.classify r));
  check_moves "backpressure moves"
    [ "deepen(q3->48)"; "replicate(2)"; "add-cut(1)"; "add-cut(2)"; "toggle-chain" ]
    (Autotune.moves space base_config r)

(* Consumers starved on an empty queue: drop the used cut, add the unused
   ones, double the cores, toggle chaining. *)
let test_moves_starvation () =
  let r =
    mk_report ~cycles:1000
      ~stages:
        [|
          mk_stage ~thread:0 ~issue:700 ~backend:100 ~qfull:0 ~qempty:0 ();
          mk_stage ~thread:1 ~issue:200 ~backend:50 ~qfull:0 ~qempty:500 ();
        |]
      ~queues:[| mk_queue ~id:1 ~cap:24 ~full:0 ~empty:500 () |]
      ~bottleneck:(Some 0) ~critical:(Some 1) ~headroom:3.0
  in
  Alcotest.(check string)
    "classified as starvation" "queue-bound(q1, starvation)"
    (A.verdict_to_string (A.classify r));
  check_moves "starvation moves"
    [ "drop-cut(0)"; "add-cut(1)"; "add-cut(2)"; "cores(2)"; "toggle-chain" ]
    (Autotune.moves space base_config r)

(* DRAM-bound bottleneck stage with chaining off: chain first, then more
   cuts, replication, cores. *)
let test_moves_backend_bound () =
  let r =
    mk_report ~cycles:1000
      ~stages:
        [|
          mk_stage ~thread:0 ~issue:300 ~backend:100 ~qfull:10 ~qempty:0 ();
          mk_stage ~thread:1 ~issue:200 ~backend:700
            ~backend_level:[| 0; 50; 50; 100; 500 |] ~qfull:0 ~qempty:10 ();
        |]
      ~queues:[| mk_queue ~id:0 ~cap:24 ~full:10 ~empty:10 () |]
      ~bottleneck:(Some 1) ~critical:(Some 0) ~headroom:2.2
  in
  Alcotest.(check string)
    "classified as DRAM-bound" "backend-bound(stage 1, DRAM)"
    (A.verdict_to_string (A.classify r));
  check_moves "backend-bound moves"
    [ "toggle-chain"; "add-cut(1)"; "add-cut(2)"; "replicate(2)"; "cores(2)" ]
    (Autotune.moves space { base_config with Autotune.at_chain = false } r)

(* Headroom below the threshold: Balanced, no moves, search stops here. *)
let test_moves_balanced () =
  let r =
    mk_report ~cycles:1000
      ~stages:
        [|
          mk_stage ~thread:0 ~issue:480 ~backend:20 ~qfull:0 ~qempty:0 ();
          mk_stage ~thread:1 ~issue:470 ~backend:20 ~qfull:0 ~qempty:0 ();
        |]
      ~queues:[| mk_queue ~id:0 ~cap:24 ~full:0 ~empty:0 () |]
      ~bottleneck:(Some 0) ~critical:(Some 0) ~headroom:1.01
  in
  Alcotest.(check string) "classified as balanced" "balanced"
    (A.verdict_to_string (A.classify r));
  check_moves "no moves when balanced" [] (Autotune.moves space base_config r)

(* Knob clamps: a queue already at the cap cannot deepen further; cores
   and replicas saturate at the space bounds. *)
let test_moves_clamped () =
  let r =
    mk_report ~cycles:1000
      ~stages:
        [|
          mk_stage ~thread:0 ~issue:200 ~backend:100 ~qfull:400 ~qempty:0 ();
          mk_stage ~thread:1 ~issue:600 ~backend:100 ~qfull:0 ~qempty:0 ();
        |]
      ~queues:[| mk_queue ~id:3 ~cap:192 ~full:400 ~empty:0 () |]
      ~bottleneck:(Some 1) ~critical:(Some 3) ~headroom:2.0
  in
  let c =
    {
      base_config with
      Autotune.at_cuts = [ mk_cut 0; mk_cut 1; mk_cut 2 ];
      at_replicas = 2;
      at_cores = 4;
    }
  in
  (* queue at max cap, replicas at max, every cut used: only the chain
     toggle is left *)
  check_moves "everything clamped" [ "toggle-chain" ] (Autotune.moves space c r)

(* --- digests -------------------------------------------------------- *)

let test_config_digest () =
  let d = Autotune.config_digest in
  let c1 = { base_config with Autotune.at_queue_caps = [ (0, 48); (2, 96) ] } in
  let c2 = { base_config with Autotune.at_queue_caps = [ (2, 96); (0, 48) ] } in
  Alcotest.(check string) "cap order is canonicalized" (d c1) (d c2);
  Alcotest.(check bool) "different caps, different digest" true
    (d c1 <> d base_config);
  Alcotest.(check bool) "chain flag is part of the key" true
    (d base_config <> d { base_config with Autotune.at_chain = false });
  (* the cut score is a ranking artifact, not identity *)
  let scored =
    { base_config with Autotune.at_cuts = [ { (mk_cut 0) with Costmodel.cut_score = 9.9 } ] }
  in
  Alcotest.(check string) "cut score does not affect the digest" (d base_config)
    (d scored)

let test_cut_set_key () =
  let a = [ mk_cut 0; mk_cut 3 ] and b = [ mk_cut 3; mk_cut 0 ] in
  Alcotest.(check string) "order-insensitive" (Autotune.cut_set_key a)
    (Autotune.cut_set_key b);
  Alcotest.(check bool) "different sets differ" true
    (Autotune.cut_set_key a <> Autotune.cut_set_key [ mk_cut 0 ])

(* --- PGO serial fallback ------------------------------------------- *)

(* A kernel with no loads has no decoupling candidates: PGO must degrade
   to the serial recipe instead of raising. *)
let test_pgo_serial_fallback () =
  let open Phloem_ir.Builder in
  let tiny =
    pipeline "tiny"
      ~params:[ ("n", Phloem_ir.Types.Vint 50) ]
      [
        stage "s"
          [
            "acc" <-- int 0;
            for_ "i" (int 0) (v "n") [ "acc" <-- (v "acc" +! v "i") ];
          ];
      ]
  in
  let bound =
    {
      Phloem_workloads.Workload.b_name = "tiny";
      b_serial = (tiny, []);
      b_data_parallel = (fun ~threads:_ -> (tiny, []));
      b_manual = None;
      b_check_arrays = [];
      b_reference = [];
      b_float_tolerance = 0.0;
    }
  in
  let recipe, outcome = Phloem_harness.Runner.pgo_cuts [ bound ] in
  Alcotest.(check int) "empty recipe" 0 (List.length recipe);
  Alcotest.(check bool) "no cut set survived" true (outcome.Autotune.o_cut_only = None);
  Alcotest.(check int) "only the serial seed ran" 1 outcome.Autotune.o_simulated;
  Alcotest.(check int) "serial baseline still measured" 1
    (List.length outcome.Autotune.o_serial_cycles);
  Alcotest.(check bool) "empty training still raises" true
    (match Phloem_harness.Runner.pgo_cuts [] with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- end-to-end tune on BFS ---------------------------------------- *)

let bfs_training () =
  let g = Phloem_graph.Gen.grid ~width:10 ~height:8 ~seed:5 in
  Phloem_workloads.Bfs.serial g ~root:0

let tune ~jobs =
  let serial, inputs = bfs_training () in
  Phloem_util.Pool.with_pool ~jobs (fun pool ->
      Autotune.tune ~beam:2 ~budget:16 ~pool ~check_arrays:[ "dist" ]
        ~training:[ (serial, inputs) ] ())

let test_tune_bfs () =
  let o = tune ~jobs:1 in
  Alcotest.(check bool) "budget respected" true
    (o.Autotune.o_simulated <= 16);
  Alcotest.(check bool) "searched a strict subset of the space" true
    (float_of_int o.Autotune.o_simulated < o.Autotune.o_exhaustive);
  Alcotest.(check bool) "found a speedup" true (o.Autotune.o_best_gmean > 1.0);
  (* seeding with every PGO cut set means the tuner can never lose to
     cut-set-only PGO *)
  (match o.Autotune.o_cut_only with
  | Some (_, _, pgo_gmean) ->
    Alcotest.(check bool) "tuned >= PGO cut-only best" true
      (o.Autotune.o_best_gmean >= pgo_gmean)
  | None -> Alcotest.fail "no cut-only candidate survived");
  (* the frontier dedups by digest: no configuration simulated twice *)
  let digests = List.map (fun a -> a.Autotune.t_digest) o.Autotune.o_trace in
  Alcotest.(check int) "trace digests are unique"
    (List.length digests)
    (List.length (List.sort_uniq compare digests))

(* A metrics registry passed to [tune] observes the search without
   affecting it: the progress counters must agree exactly with the
   outcome's own accounting, and every eval lands in the latency
   histogram. *)
let test_tune_metrics_progress () =
  let module M = Phloem_util.Metrics in
  let metrics = M.create () in
  let serial, inputs = bfs_training () in
  let o =
    Autotune.tune ~beam:2 ~budget:16 ~metrics ~check_arrays:[ "dist" ]
      ~training:[ (serial, inputs) ] ()
  in
  let snap = M.snapshot metrics in
  let counter k =
    match List.assoc_opt k snap.M.sn_counters with Some v -> v | None -> 0
  in
  Alcotest.(check int) "evals counted" o.Autotune.o_simulated
    (counter "autotune_evals");
  Alcotest.(check int) "waves counted" o.Autotune.o_waves
    (counter "autotune_waves");
  Alcotest.(check int) "rejections counted" o.Autotune.o_rejected
    (counter "autotune_rejected");
  Alcotest.(check int) "dedups counted" o.Autotune.o_deduped
    (counter "autotune_deduped");
  (match List.assoc_opt "autotune_eval_s" snap.M.sn_hists with
  | Some h ->
    Alcotest.(check int) "one latency sample per eval" o.Autotune.o_simulated
      (Phloem_util.Stats.hist_count h)
  | None -> Alcotest.fail "eval latency histogram missing");
  match List.assoc_opt "autotune_best_gmean" snap.M.sn_gauges with
  | Some g ->
    Alcotest.(check (float 1e-9)) "best gmean gauge" o.Autotune.o_best_gmean g
  | None -> Alcotest.fail "best-gmean gauge missing"

let test_tune_deterministic_across_jobs () =
  let o1 = tune ~jobs:1 and o2 = tune ~jobs:2 in
  Alcotest.(check string) "byte-identical outcome JSON across pool sizes"
    (Json.to_string (Autotune.json_of_outcome o1))
    (Json.to_string (Autotune.json_of_outcome o2))

let suite =
  [
    Alcotest.test_case "moves: backpressure" `Quick test_moves_backpressure;
    Alcotest.test_case "moves: starvation" `Quick test_moves_starvation;
    Alcotest.test_case "moves: backend-bound" `Quick test_moves_backend_bound;
    Alcotest.test_case "moves: balanced" `Quick test_moves_balanced;
    Alcotest.test_case "moves: clamped" `Quick test_moves_clamped;
    Alcotest.test_case "config digest" `Quick test_config_digest;
    Alcotest.test_case "cut-set key" `Quick test_cut_set_key;
    Alcotest.test_case "pgo serial fallback" `Quick test_pgo_serial_fallback;
    Alcotest.test_case "tune bfs" `Quick test_tune_bfs;
    Alcotest.test_case "tune metrics progress" `Quick
      test_tune_metrics_progress;
    Alcotest.test_case "tune deterministic across jobs" `Quick
      test_tune_deterministic_across_jobs;
  ]

let () = Alcotest.run "autotune" [ ("autotune", suite) ]
