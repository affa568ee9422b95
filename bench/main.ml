(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md's experiment index), plus Bechamel
   micro-benchmarks of the simulator's primitives.

   Usage:
     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe fig9            # one experiment
     dune exec bench/main.exe table3 fig6 ...
     PHLOEM_SCALE=0.5 dune exec bench/main.exe  # smaller inputs
     dune exec bench/main.exe micro           # Bechamel microbenches only
     dune exec bench/main.exe --json out.json # fig9-11 data as JSON
     dune exec bench/main.exe -- --jobs 4     # parallel sweep on 4 domains
     dune exec bench/main.exe -- --wall --jobs 4   # wall-clock speedup
                                              # report -> BENCH_parallel.json
     dune exec bench/main.exe -- --compare old.json new.json
                                              # regression diff; exit 4 on a
                                              # regression (0 with --warn) *)

let micro () =
  print_endline "\n==== Bechamel micro-benchmarks (simulator primitives) ====";
  let open Bechamel in
  let open Toolkit in
  let test_prng =
    Test.make ~name:"prng.next"
      (Staged.stage
         (let rng = Phloem_util.Prng.create 42 in
          fun () -> ignore (Phloem_util.Prng.next rng)))
  in
  let test_cache =
    Test.make ~name:"cache.access (streaming)"
      (Staged.stage
         (let caches = Pipette.Cache.create Pipette.Config.default in
          let addr = ref 0x100000 in
          fun () ->
            addr := !addr + 64;
            ignore (Pipette.Cache.access caches ~core:0 ~addr:!addr ~now:0)))
  in
  let test_predictor =
    Test.make ~name:"predictor.predict_update"
      (Staged.stage
         (let p = Pipette.Predictor.create ~entries:4096 ~history_bits:8 ~n_threads:1 in
          let i = ref 0 in
          fun () ->
            incr i;
            ignore
              (Pipette.Predictor.predict_update p ~thread:0 ~pc:42
                 ~taken:(!i land 3 <> 0))))
  in
  let test_interp =
    Test.make ~name:"interp+engine: 2-stage pipeline (n=64)"
      (Staged.stage
         (let open Phloem_ir.Builder in
          let p =
            pipeline "micro"
              ~params:[ ("n", Phloem_ir.Types.Vint 64) ]
              ~queues:[ queue 0 ]
              [
                stage "prod" [ for_ "i" (int 0) (v "n") [ enq 0 (v "i") ] ];
                stage "cons" [ for_ "i" (int 0) (v "n") [ "x" <-- deq 0 ] ];
              ]
          in
          fun () -> ignore (Pipette.Sim.run p)))
  in
  let test_compile =
    Test.make ~name:"phloem: compile BFS (static flow)"
      (Staged.stage
         (let g = Phloem_graph.Gen.grid ~width:8 ~height:8 ~seed:1 in
          let b = Phloem_workloads.Bfs.bind g in
          let serial = fst b.Phloem_workloads.Workload.b_serial in
          fun () -> ignore (Phloem.Compile.static_flow ~stages:4 serial)))
  in
  let benchmark test =
    let instances = Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 10) () in
    let raw = Benchmark.all cfg instances test in
    let results =
      Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]) Instance.monotonic_clock raw
    in
    Hashtbl.iter
      (fun name result ->
        match Analyze.OLS.estimates result with
        | Some [ est ] -> Printf.printf "  %-42s %12.1f ns/run\n%!" name est
        | _ -> Printf.printf "  %-42s (no estimate)\n%!" name)
      results
  in
  List.iter
    (fun t -> benchmark (Bechamel.Test.make_grouped ~name:"pipette" [ t ]))
    [ test_prng; test_cache; test_predictor; test_interp; test_compile ]

(* --- flag parsing (no cmdliner dep here: keep bechamel the only extra) --- *)

type opts = {
  o_json : string option; (* --json FILE: fig9-11 data as JSON *)
  o_jobs : int; (* --jobs N: domains for the parallel sweep *)
  o_wall : string option; (* --wall[=FILE]: wall-clock speedup report *)
  o_pgo : bool; (* --no-pgo: skip profile-guided search *)
  o_only : string list option; (* --only A,B: restrict sweep inputs *)
  o_compare : (string * string) option; (* --compare OLD NEW: diff reports *)
  o_warn : bool; (* --warn: report regressions without failing *)
  o_args : string list; (* positional experiment names *)
}

let parse_args args =
  let prefixed p a =
    let n = String.length p in
    if String.length a > n && String.sub a 0 n = p then
      Some (String.sub a n (String.length a - n))
    else None
  in
  let split_commas s = String.split_on_char ',' s |> List.filter (( <> ) "") in
  let rec go o = function
    | [] -> { o with o_args = List.rev o.o_args }
    | "--json" :: file :: rest -> go { o with o_json = Some file } rest
    | "--jobs" :: n :: rest -> go { o with o_jobs = int_of_string n } rest
    | "--wall" :: rest -> go { o with o_wall = Some "BENCH_parallel.json" } rest
    | "--no-pgo" :: rest -> go { o with o_pgo = false } rest
    | "--only" :: names :: rest ->
      go { o with o_only = Some (split_commas names) } rest
    | "--compare" :: old_f :: new_f :: rest ->
      go { o with o_compare = Some (old_f, new_f) } rest
    | "--warn" :: rest -> go { o with o_warn = true } rest
    | a :: rest -> (
      match
        ( prefixed "--json=" a,
          prefixed "--jobs=" a,
          prefixed "--wall=" a,
          prefixed "--only=" a )
      with
      | Some f, _, _, _ -> go { o with o_json = Some f } rest
      | _, Some n, _, _ -> go { o with o_jobs = int_of_string n } rest
      | _, _, Some f, _ -> go { o with o_wall = Some f } rest
      | _, _, _, Some s -> go { o with o_only = Some (split_commas s) } rest
      | None, None, None, None -> go { o with o_args = a :: o.o_args } rest)
  in
  go
    {
      o_json = None;
      o_jobs = Phloem_util.Pool.default_jobs ();
      o_wall = None;
      o_pgo = true;
      o_only = None;
      o_compare = None;
      o_warn = false;
      o_args = [];
    }
    args

(* --- --compare OLD NEW: diff two evaluation JSON reports and exit 4 on a
   regression beyond the default thresholds (unless --warn). --- *)

let compare_reports ~warn old_file new_file =
  let module R = Phloem_harness.Regress in
  Printf.printf "==== Benchmark comparison: %s -> %s ====\n" old_file new_file;
  match R.compare_files ~old_file ~new_file () with
  | exception Phloem_util.Json.Parse_error msg ->
    Printf.eprintf "error: malformed report: %s\n" msg;
    exit 2
  | exception Sys_error msg ->
    Printf.eprintf "error: %s\n" msg;
    exit 2
  | o ->
    print_string (R.render o);
    if R.regressed o then
      if warn then
        print_endline "regressions found (exit 0: --warn)"
      else begin
        print_endline "regressions found";
        exit 4
      end

(* --- --wall: wall-clock seconds of the standard sweep, serial vs pooled,
   with a byte-equality check of the two JSON reports and a phase-split
   attribution (compile / trace / simulate) of where the time went. --- *)

(* Committed pre-refactor reference: the tree-walking sweep at the CI smoke
   configuration (PHLOEM_SCALE=0.05, --no-pgo, smoke inputs) took this many
   serial wall seconds end to end. The sweep is deterministic, so it
   replayed the same simulated µops the compiled core replays today — which
   makes [ops / pre_refactor_serial_s] a conservative upper bound on the old
   engine throughput (the old sweep spent at least its simulate phase, i.e.
   at most its whole wall, producing those ops). The engine-speedup ratio
   in the report divides current simulate-phase throughput by it. *)
let pre_refactor_serial_s = 1.21287

let wall_benchmark ~jobs ~scale ?only_inputs ~pgo ~file ~json_file () =
  let module E = Phloem_harness.Experiments in
  let module P = Phloem_harness.Phases in
  let module Json = Phloem_util.Json in
  Printf.printf "==== Wall-clock benchmark: standard sweep, --jobs 1 vs --jobs %d ====\n%!"
    jobs;
  let time f =
    let t0 = Unix.gettimeofday () in
    let x = f () in
    (x, Unix.gettimeofday () -. t0)
  in
  (* The serial leg runs three times: the first cold (caches cleared), so
     its phase split shows the one-time compile+trace cost next to the
     per-config simulate cost; the rest trace-warm. Engine throughput is
     taken from the fastest repetition's simulate phase — every repetition
     replays the identical simulated work, and the minimum over repetitions
     is the standard noise-robust cost estimator on a shared machine. *)
  let serial_reps = 3 in
  let serial_runs = ref [] in
  for rep = 1 to serial_reps do
    if rep = 1 then Pipette.Sim.clear_caches ();
    P.reset ();
    let all, s = time (fun () -> E.collect ?only_inputs ~pgo ~scale ()) in
    serial_runs := (all, s, P.snapshot ()) :: !serial_runs
  done;
  let serial_runs = List.rev !serial_runs in
  let serial_all, serial_s, sp =
    match serial_runs with r :: _ -> r | [] -> assert false
  in
  let min_simulate_s =
    List.fold_left
      (fun acc (_, _, (s : P.snapshot)) -> min acc s.P.ph_simulate_s)
      infinity serial_runs
  in
  Printf.printf
    "  --jobs 1 : %8.2f s   (compile %.3f s, trace %.3f s, simulate %.3f s; \
     best-of-%d simulate %.3f s)\n\
     %!"
    serial_s sp.P.ph_compile_s sp.P.ph_trace_s sp.P.ph_simulate_s serial_reps
    min_simulate_s;
  let sp_cache =
    match List.rev serial_runs with (_, _, s) :: _ -> s | [] -> assert false
  in
  (* The parallel leg runs cache-warm: every (pipeline, input) trace is
     already memoized from the serial leg, so pool thunks pay only for
     timing replays — the honest measure of sweep parallelism now that
     compilation and functional execution amortize across configs. Also
     best-of-3, for the same noise robustness as the serial leg. *)
  (* The pool exists only for this leg: idle worker domains would otherwise
     join every minor-collection barrier during the serial leg and tax the
     single-thread measurement. Domain spawn happens outside the timers. *)
  let effective_jobs, par_runs =
    Phloem_util.Pool.with_pool ~jobs @@ fun pool ->
    let acc = ref [] in
    for _rep = 1 to serial_reps do
      P.reset ();
      let all, s =
        time (fun () -> E.collect ~pool ?only_inputs ~pgo ~scale ())
      in
      acc := (all, s, P.snapshot ()) :: !acc
    done;
    (Phloem_util.Pool.jobs pool, List.rev !acc)
  in
  let par_all, _, pp = match par_runs with r :: _ -> r | [] -> assert false in
  let par_s =
    List.fold_left (fun acc (_, s, _) -> min acc s) infinity par_runs
  in
  Printf.printf
    "  --jobs %-2d: %8.2f s   (compile %.3f s, trace %.3f s, simulate %.3f s; \
     best of %d)\n\
     %!"
    effective_jobs par_s pp.P.ph_compile_s pp.P.ph_trace_s pp.P.ph_simulate_s
    serial_reps;
  let serial_json = Json.to_string (E.json_of_collection serial_all) in
  let par_json = Json.to_string (E.json_of_collection par_all) in
  (* every repetition of either leg must reproduce the same bytes *)
  let deterministic =
    String.equal serial_json par_json
    && List.for_all
         (fun (all, _, _) ->
           String.equal serial_json (Json.to_string (E.json_of_collection all)))
         (List.tl serial_runs @ List.tl par_runs)
  in
  (* All derived rates and ratios go through the Phases guards: a smoke
     sweep small enough to finish inside the clock resolution must report
     0.0, never inf/NaN (which would poison the JSON report and every
     later --compare against it). *)
  let speedup = P.ratio serial_s par_s in
  Printf.printf "  speedup  : %8.2fx   (deterministic: %b)\n%!" speedup deterministic;
  let simulated_ops = sp.P.ph_ops in
  let ops_per_sec = P.per_second simulated_ops min_simulate_s in
  let pre_ops_per_sec = P.per_second simulated_ops pre_refactor_serial_s in
  let engine_speedup = P.ratio ops_per_sec pre_ops_per_sec in
  Printf.printf
    "  engine   : %8.2f Mops/s single-thread (%.1fx the pre-refactor sweep's %.2f Mops/s)\n%!"
    (ops_per_sec /. 1e6) engine_speedup (pre_ops_per_sec /. 1e6);
  let n_runs =
    List.fold_left (fun acc (_, rs) -> acc + List.length rs) 0 serial_all
  in
  let phases (s : P.snapshot) =
    Json.Obj
      [
        ("compile_s", Json.Float s.P.ph_compile_s);
        ("trace_s", Json.Float s.P.ph_trace_s);
        ("simulate_s", Json.Float s.P.ph_simulate_s);
      ]
  in
  Json.to_file file
    (Json.Obj
       [
         ("jobs", Json.Int effective_jobs);
         ("requested_jobs", Json.Int jobs);
         ("recommended_domains", Json.Int (Phloem_util.Pool.default_jobs ()));
         ("scale", Json.Float scale);
         ("pgo", Json.Bool pgo);
         ("benchmarks", Json.Int (List.length serial_all));
         ("sweep_jobs", Json.Int n_runs);
         ("serial_wall_s", Json.Float serial_s);
         ("serial_reps", Json.Int serial_reps);
         ("serial_simulate_best_s", Json.Float min_simulate_s);
         ("parallel_wall_s", Json.Float par_s);
         ("speedup", Json.Float speedup);
         ("deterministic", Json.Bool deterministic);
         ("serial_phases", phases sp);
         ("parallel_phases", phases pp);
         ("simulated_ops", Json.Int simulated_ops);
         ("ops_per_sec", Json.Float ops_per_sec);
         ("pre_refactor_wall_s", Json.Float pre_refactor_serial_s);
         ("pre_refactor_ops_per_sec", Json.Float pre_ops_per_sec);
         ("engine_speedup", Json.Float engine_speedup);
         ( "trace_cache",
           Json.Obj
             [
               ("serial_hits", Json.Int sp_cache.P.ph_trace_hits);
               ("serial_misses", Json.Int sp_cache.P.ph_trace_misses);
               ( "parallel_hits",
                 Json.Int (pp.P.ph_trace_hits - sp_cache.P.ph_trace_hits) );
               ( "parallel_misses",
                 Json.Int (pp.P.ph_trace_misses - sp_cache.P.ph_trace_misses) );
             ] );
       ]);
  Printf.printf "  report written to %s\n%!" file;
  (match json_file with
  | Some f ->
    Json.to_file f (E.json_of_collection par_all);
    Printf.printf "  evaluation JSON written to %s\n%!" f
  | None -> ());
  if not deterministic then exit 3

let () =
  let module E = Phloem_harness.Experiments in
  (* The tracer and the workload binders allocate heavily between engine
     replays; with the default 256k-word minor heap the resulting minor
     collections land inside the timed simulate windows and cost ~25% of
     engine throughput. A 4M-word minor heap (per domain) moves that work
     out of the measurement. Set before any domain spawns so pool domains
     inherit it. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 4 * 1024 * 1024 };
  let scale = E.default_scale () in
  let o = parse_args (Array.to_list Sys.argv |> List.tl) in
  match o.o_wall with
  | Some file ->
    (* --wall manages its own pool: the serial leg must run without idle
       worker domains in the process *)
    wall_benchmark ~jobs:o.o_jobs ~scale ?only_inputs:o.o_only ~pgo:o.o_pgo
      ~file ~json_file:o.o_json ()
  | None ->
  Phloem_util.Pool.with_pool ~jobs:o.o_jobs @@ fun pool ->
  let dispatch = function
    | "table3" -> E.table3 ()
    | "table4" -> E.table4 ~scale ()
    | "table5" -> E.table5 ~scale ()
    | "fig6" -> E.fig6 ~scale ()
    | "fig9" -> E.fig9 ~pool ~scale ()
    | "fig10" -> E.fig10 ~pool ~scale ()
    | "fig11" -> E.fig11 ~pool ~scale ()
    | "fig12" -> E.fig12 ~pool ~scale ()
    | "fig13" -> E.fig13 ~pool ~scale ()
    | "fig14" -> E.fig14 ~scale ()
    | "micro" -> micro ()
    | other -> Printf.eprintf "unknown experiment %s\n" other
  in
  match o.o_compare with
  | Some (old_f, new_f) -> compare_reports ~warn:o.o_warn old_f new_f
  | None -> (
    match (o.o_json, o.o_args) with
    | Some file, [] ->
      ignore
        (E.write_json_report ~pool ?only_inputs:o.o_only ~pgo:o.o_pgo ~scale
           ~file ())
    | Some file, args ->
      ignore
        (E.write_json_report ~pool ?only_inputs:o.o_only ~pgo:o.o_pgo ~scale
           ~file ());
      List.iter dispatch args
    | None, [] ->
      E.run_all_experiments ~pool ~scale ();
      micro ()
    | None, args -> List.iter dispatch args)
