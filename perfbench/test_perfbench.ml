(* Self-tests of the benchmark, all on tiny seeded inputs: span self time,
   the sweep's cycles against the harness runner, the tune outcome across
   pool sizes, and the serve generator's hit/miss accounting against
   phloemd's own counters. *)

open Phloem_perfbench
module Runner = Phloem_harness.Runner
module Json = Pipette.Telemetry.Json

let tiny = 0.05
let seed = 3
let off = Span.create ~enabled:false

let test_self_time () =
  let spans =
    Span.nest
      [
        ("w", "execute", 0.0, 10.0);
        ("w", "trace", 1.0, 4.0);
        ("w", "simulate", 4.0, 9.0);
        ("r", "parse", 2.0, 3.0);
      ]
  in
  let ls = Span.layers spans in
  Alcotest.(check (float 1e-9)) "execute self" 2.0 (Span.layer ls "execute").Span.l_self;
  Alcotest.(check (float 1e-9)) "execute busy" 10.0 (Span.layer ls "execute").Span.l_busy;
  Alcotest.(check (float 1e-9)) "other track is no child" 1.0 (Span.layer ls "parse").Span.l_self

let test_sweep_matches_runner () =
  List.iter
    (fun (bn : Sweep.bench) ->
      let cells = Sweep.run_bench ~spans:off ~tally:(Sweep.tally ()) bn in
      let a = Runner.run_all bn.Sweep.bn_bound in
      let runner =
        List.filter_map
          (fun (v, m) -> Option.map (fun (m : Runner.measurement) -> (v, m.Runner.m_cycles)) m)
          [
            ("serial", Some a.Runner.serial);
            ("data-parallel", a.Runner.data_parallel);
            ("phloem-static", a.Runner.phloem_static);
            ("manual", a.Runner.manual);
          ]
      in
      let name = bn.Sweep.bn_kernel ^ "/" ^ bn.Sweep.bn_input in
      Alcotest.(check (list (pair string int)))
        name runner
        (List.map (fun (c : Sweep.cell) -> (Filename.basename c.Sweep.c_name, c.Sweep.c_cycles)) cells);
      Alcotest.(check bool) (name ^ " valid") true (List.for_all (fun (c : Sweep.cell) -> c.Sweep.c_ok) cells))
    (Sweep.setup ~spans:off ~scale:tiny ~seed)

let test_tune_pool_invariant () =
  let _, b = List.hd (Tune.setup ~spans:off ~scale:tiny ~seed) in
  let outcome jobs =
    Pipette.Sim.clear_caches ();
    Phloem_util.Pool.with_pool ~jobs (fun pool ->
        Tune.tune_kernel ~budget:24 ~pool ~metrics:(Phloem_util.Metrics.create ()) b)
  in
  let o1 = outcome 1 and on = outcome (Phloem_util.Pool.default_jobs ()) in
  let bytes o = Json.to_string (Phloem.Autotune.json_of_outcome o) in
  Alcotest.(check string) "outcome bytes" (bytes o1) (bytes on);
  Alcotest.(check bool) "winner verifies" true (Tune.verify b o1)

let test_serve_counts () =
  let dir = "serve-test" in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let catalogue = Array.sub (Serve.catalogue ~scale:tiny) 0 6 in
  let lines = Array.map (fun j -> Phloem_serve.Protocol.simulate_request j) catalogue in
  let stream = Serve.stream ~seed ~keys:(Array.length catalogue) ~length:40 in
  let r =
    Serve.round ~exe:"../bin/phloemd.exe" ~dir ~jobs:2 ~catalogue ~lines ~stream ~traced:true
      ~tag:"test"
  in
  Alcotest.(check int) "no failures" 0 r.Serve.rd_failed;
  Alcotest.(check (option (pair int int)))
    "generator hits/misses = phloemd_cache_hits/misses"
    (Some (Serve.count Serve.Hit r.Serve.rd_samples, Serve.count Serve.Miss r.Serve.rd_samples))
    (Serve.daemon_counts r)

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "span self time" `Quick test_self_time;
          Alcotest.test_case "sweep cycles equal Runner.run_all" `Quick test_sweep_matches_runner;
          Alcotest.test_case "tune outcome identical at jobs 1 and nproc" `Quick
            test_tune_pool_invariant;
          Alcotest.test_case "serve hit/miss counts equal phloemd's" `Quick test_serve_counts;
        ] );
    ]
