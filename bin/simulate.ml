(* simulate: run one benchmark / variant / input on the Pipette model and
   report cycles, IPC, breakdowns and energy — as text, and optionally as a
   machine-readable JSON report (--json), a Chrome trace-event file
   (--trace-out) with per-thread stall timelines and queue-occupancy
   counter tracks. *)

open Cmdliner
open Phloem_workloads
module Serve = Phloem_serve

(* Empty traces report 0 cycles; keep the derived ratios finite. *)
let fdiv a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* Parse --inject / --fault-key into a fault plan (shared by the local and
   the --remote path; the remote daemon replays the identical plan). *)
let fault_plan inject fault_key =
  match inject with
  | None -> None
  | Some s -> (
    match Pipette.Faults.of_string s with
    | Ok plan ->
      let plan =
        match fault_key with
        | Some k -> { plan with Pipette.Faults.fp_key = k }
        | None -> plan
      in
      Some plan
    | Error msg ->
      Printf.eprintf "simulate: bad --inject plan: %s\n" msg;
      exit 2)

(* --- --remote SOCK: replay this CLI invocation against a phloemd ------- *)

let run_remote sock (job : Serve.Protocol.job) json_out =
  let module Json = Phloem_util.Json in
  (* Measured client-side on purpose: the ok envelope must stay a pure
     function of the job (cache hits splice raw payload bytes), so the
     daemon cannot embed per-request timings in it. *)
  let t0 = Unix.gettimeofday () in
  let line =
    match
      Serve.Client.with_unix sock (fun fd ->
          Serve.Client.request fd (Serve.Protocol.simulate_request job))
    with
    | line -> line
    | exception Unix.Unix_error (e, _, _) ->
      Printf.eprintf "simulate: cannot reach phloemd at %s: %s\n" sock
        (Unix.error_message e);
      exit 1
    | exception End_of_file ->
      Printf.eprintf "simulate: phloemd at %s hung up without responding\n" sock;
      exit 1
  in
  let latency_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  let j =
    try Json.of_string line
    with Json.Parse_error msg ->
      Printf.eprintf "simulate: malformed daemon response: %s\n" msg;
      exit 1
  in
  let str k = match Json.member k j with Some (Json.Str s) -> s | _ -> "?" in
  match Serve.Protocol.response_status j with
  | "ok" -> (
    let cached = Serve.Protocol.response_cached j in
    match Serve.Protocol.response_payload_raw line with
    | None ->
      Printf.eprintf "simulate: ok response without a result payload\n";
      exit 1
    | Some payload_raw ->
      let p = Json.of_string payload_raw in
      let num k =
        match Option.bind (Json.member k p) Json.to_float_opt with
        | Some v -> v
        | None -> 0.0
      in
      let valid =
        match Json.member "valid" p with Some (Json.Bool b) -> b | _ -> false
      in
      Printf.printf "%s / %s on %s (remote via %s)\n" job.Serve.Protocol.j_bench
        job.Serve.Protocol.j_variant job.Serve.Protocol.j_input sock;
      Printf.printf "  served from cache         : %b\n" cached;
      Printf.printf "  round-trip latency        : %.2f ms\n" latency_ms;
      Printf.printf "  result valid vs reference : %b\n" valid;
      Printf.printf "  cycles                    : %.0f\n" (num "cycles");
      Printf.printf "  speedup over serial       : %.2fx\n" (num "speedup");
      (match json_out with
      | Some file ->
        (* raw payload bytes, so repeated requests write identical files *)
        let oc = open_out_bin file in
        output_string oc payload_raw;
        output_char oc '\n';
        close_out oc;
        Printf.printf "  JSON report written to %s\n" file
      | None -> ());
      if valid then 0 else 2)
  | "shed" ->
    Printf.eprintf
      "simulate: phloemd shed the request (queue %s/%s full); retry with \
       backoff\n"
      (match Json.member "queued" j with Some (Json.Int n) -> string_of_int n | _ -> "?")
      (match Json.member "limit" j with Some (Json.Int n) -> string_of_int n | _ -> "?");
    8
  | "error" -> (
    Printf.eprintf "simulate: remote error [%s]: %s\n" (str "code") (str "message");
    match
      Option.bind (Json.member "failure" j) (fun f -> Json.member "exit_code" f)
    with
    | Some (Json.Int code) -> code
    | _ -> 2)
  | other ->
    Printf.eprintf "simulate: unknown response status %S\n" other;
    1

(* --- --autotune: analysis-guided search over the full design space ----- *)

let run_autotune bench input scale json_out jobs beam search_budget max_replicas
    max_cores =
  let module Json = Phloem_util.Json in
  let b =
    try Serve.Jobs.bind ~bench ~input ~scale
    with Serve.Jobs.Bad_job msg -> failwith msg
  in
  let metrics = Phloem_util.Metrics.create () in
  let outcome =
    Phloem_util.Pool.with_pool ~jobs (fun pool ->
        Phloem.Autotune.tune ~beam ~budget:search_budget ~max_replicas
          ~max_cores ~pool ~metrics ~check_arrays:b.Workload.b_check_arrays
          ~training:[ b.Workload.b_serial ] ())
  in
  Printf.printf "%s / autotune on %s\n" b.Workload.b_name input;
  print_string (Phloem.Autotune.summary outcome);
  (let module M = Phloem_util.Metrics in
   let module S = Phloem_util.Stats in
   let h = M.observed (M.histogram metrics "autotune_eval_s") in
   if S.hist_count h > 0 then
     Printf.printf
       "  eval latency: p50 %.1f ms, p95 %.1f ms, max %.1f ms over %d evals\n"
       (1000.0 *. S.percentile_hist 0.50 h)
       (1000.0 *. S.percentile_hist 0.95 h)
       (1000.0 *. Option.value ~default:0.0 (S.hist_max h))
       (S.hist_count h));
  (match json_out with
  | Some file ->
    let cyc = function c :: _ -> c | [] -> 0 in
    let serial_c = cyc outcome.Phloem.Autotune.o_serial_cycles in
    let speedup c = if c = 0 then 0.0 else float_of_int serial_c /. float_of_int c in
    let run_obj c =
      Json.Obj [ ("cycles", Json.Int c); ("speedup", Json.Float (speedup c)) ]
    in
    (* the "benchmarks" section mirrors the evaluation-report shape so
       Harness.Regress can diff autotune baselines with the same machinery *)
    let runs =
      [
        ("serial", run_obj serial_c);
        ("autotuned", run_obj (cyc outcome.Phloem.Autotune.o_best_cycles));
      ]
      @
      match outcome.Phloem.Autotune.o_cut_only with
      | Some (_, cycles, _) -> [ ("pgo_cut_only", run_obj (cyc cycles)) ]
      | None -> []
    in
    Json.to_file file
      (Json.Obj
         [
           ("bench", Json.Str bench);
           ("input", Json.Str input);
           ("scale", Json.Float scale);
           ("autotune", Phloem.Autotune.json_of_outcome outcome);
           ( "benchmarks",
             Json.List
               [
                 Json.Obj
                   [
                     ("benchmark", Json.Str bench);
                     ( "inputs",
                       Json.List
                         [
                           Json.Obj
                             [
                               ("input", Json.Str input);
                               ("runs", Json.Obj runs);
                             ];
                         ] );
                   ];
               ] );
         ]);
    Printf.printf "  JSON report written to %s\n" file
  | None -> ());
  0

let rec simulate bench variant input scale json_out trace_out sample_interval
    jobs profile inject fault_key watchdog cycle_budget remote autotune beam
    search_budget max_replicas max_cores =
  if autotune then
    run_autotune bench input scale json_out jobs beam search_budget max_replicas
      max_cores
  else
  let plan = fault_plan inject fault_key in
  let job =
    {
      Serve.Protocol.default_job with
      Serve.Protocol.j_bench = bench;
      j_variant = variant;
      j_input = input;
      j_scale = scale;
      j_inject = plan;
      j_watchdog = watchdog;
      j_cycle_budget = cycle_budget;
    }
  in
  match remote with
  | Some sock -> run_remote sock job json_out
  | None ->
  let b =
    try Serve.Jobs.bind ~bench ~input ~scale
    with Serve.Jobs.Bad_job msg -> failwith msg
  in
  let serial_p, serial_in = b.Workload.b_serial in
  let p, inputs =
    try Serve.Jobs.variant_pipeline b ~variant ~stages:4 ~threads:4
    with Serve.Jobs.Bad_job msg -> failwith msg
  in
  let faults = Option.map Pipette.Faults.create plan in
  let telemetry =
    if json_out <> None || trace_out <> None then
      Some (Pipette.Telemetry.create ~interval:sample_interval ())
    else None
  in
  (* A wedged run (deadlock / livelock / exhausted cycle budget) surfaces
     as a structured forensics report: rendered to stdout, written to
     --json when given, and mapped to a distinct exit code (deadlock 5,
     livelock 6, budget 7) so CI can tell the failure modes apart. *)
  let fail_and_exit (fr : Phloem_ir.Forensics.report) =
    print_string (Phloem_ir.Forensics.render fr);
    (match json_out with
    | Some file ->
      let open Phloem_util.Json in
      let flt =
        match faults with
        | Some f -> [ ("faults", Pipette.Faults.json_of_counters f) ]
        | None -> []
      in
      to_file file
        (Obj
           ([
              ("bench", Str bench);
              ("variant", Str variant);
              ("input", Str input);
              ("failure", Pipette.Analysis.json_of_failure fr);
            ]
           @ flt));
      Printf.printf "  failure JSON written to %s\n" file
    | None -> ());
    Phloem_ir.Forensics.exit_code fr.Phloem_ir.Forensics.fr_kind
  in
  (* The serial baseline and the variant run are independent simulations:
     with --jobs > 1 they execute on separate domains; --jobs 1 runs them
     in order on this one, exactly the previous path. Faults are injected
     into the variant run only — the serial baseline stays clean. *)
  match
    Phloem_util.Pool.with_pool ~jobs (fun pool ->
        Phloem_util.Pool.run pool
          [
            (fun () -> Pipette.Sim.run ~inputs:serial_in serial_p);
            (fun () ->
              Pipette.Sim.run ~inputs ?telemetry ?faults ?watchdog ?cycle_budget
                p);
          ])
  with
  | exception Phloem_ir.Forensics.Pipeline_failure fr -> fail_and_exit fr
  | [ sr; r ] -> report bench variant input scale json_out trace_out profile
                   faults telemetry b p sr r
  | _ -> assert false

and report bench variant input scale json_out trace_out profile faults telemetry
    b p sr r =
  let serial_cycles = Pipette.Sim.cycles sr in
  let t = r.Pipette.Sim.sr_timing in
  let ok = Workload.check b r.Pipette.Sim.sr_functional in
  Printf.printf "%s / %s on %s\n" b.Workload.b_name variant input;
  Printf.printf "  result valid vs reference : %b\n" ok;
  Printf.printf "  cycles                    : %d\n" t.Pipette.Engine.cycles;
  Printf.printf "  micro-ops                 : %d (IPC %.2f)\n" t.Pipette.Engine.instrs
    (fdiv t.Pipette.Engine.instrs t.Pipette.Engine.cycles);
  Printf.printf "  speedup over serial       : %.2fx\n"
    (fdiv serial_cycles t.Pipette.Engine.cycles);
  Printf.printf "  thread-cycles: issue %d, backend %d, queue %d, other %d\n"
    t.Pipette.Engine.issue_cycles t.Pipette.Engine.backend_cycles
    t.Pipette.Engine.queue_cycles t.Pipette.Engine.other_cycles;
  Printf.printf "  branches: %d (%.1f%% mispredicted)\n" t.Pipette.Engine.branch_lookups
    (100.0
    *. float_of_int t.Pipette.Engine.branch_mispredicts
    /. float_of_int (max 1 t.Pipette.Engine.branch_lookups));
  Printf.printf "  DRAM accesses: %d; queue ops: %d; RA fetches: %d\n"
    t.Pipette.Engine.cache.Pipette.Cache.c_dram t.Pipette.Engine.queue_ops
    t.Pipette.Engine.ra_fetches;
  Printf.printf "  prefetches: %d (%d cache hits, %d DRAM fills)\n"
    t.Pipette.Engine.cache.Pipette.Cache.c_prefetches
    t.Pipette.Engine.cache.Pipette.Cache.c_prefetch_hits
    t.Pipette.Engine.cache.Pipette.Cache.c_prefetch_dram;
  let e = r.Pipette.Sim.sr_energy in
  Printf.printf "  energy (nJ): core %.0f, memory %.0f, queues+RA %.0f, static %.0f\n"
    e.Pipette.Energy.e_core_dynamic e.Pipette.Energy.e_memory
    e.Pipette.Energy.e_queues_ras e.Pipette.Energy.e_static;
  (match faults with
  | Some f ->
    let c = Pipette.Faults.counters f in
    Printf.printf
      "  faults injected: %d (drops %d, dups %d, spikes %d, stall-cycles %d, \
       kills %d, poisons %d)\n"
      (Pipette.Faults.total f) c.Pipette.Faults.c_drops c.Pipette.Faults.c_dups
      c.Pipette.Faults.c_spikes c.Pipette.Faults.c_stall_cycles
      c.Pipette.Faults.c_kills c.Pipette.Faults.c_poisons
  | None -> ());
  let analysis =
    if profile then
      Some (Pipette.Sim.analyze ~stage_names:(Pipette.Sim.stage_names p) r)
    else None
  in
  (match analysis with
  | Some rep ->
    print_newline ();
    print_string (Pipette.Analysis.render rep)
  | None -> ());
  (match json_out with
  | None -> ()
  | Some file ->
    let open Phloem_util.Json in
    let meta =
      [
        ("bench", Str bench);
        ("variant", Str variant);
        ("input", Str input);
        ("scale", Float scale);
        ("valid", Bool ok);
        ("serial_cycles", Int serial_cycles);
        ("speedup", Float (fdiv serial_cycles t.Pipette.Engine.cycles));
      ]
    in
    let core =
      match Pipette.Sim.json_of_run r with Obj fields -> fields | j -> [ ("run", j) ]
    in
    let tel =
      match telemetry with
      | Some tel -> [ ("telemetry", Pipette.Telemetry.report_json tel) ]
      | None -> []
    in
    let ana =
      match analysis with
      | Some rep -> [ ("analysis", Pipette.Analysis.json_of_report rep) ]
      | None -> []
    in
    let flt =
      match faults with
      | Some f -> [ ("faults", Pipette.Faults.json_of_counters f) ]
      | None -> []
    in
    to_file file (Obj (meta @ core @ flt @ tel @ ana));
    Printf.printf "  JSON report written to %s\n" file);
  (match (trace_out, telemetry) with
  | Some file, Some tel ->
    Pipette.Telemetry.write_trace_file tel file;
    Printf.printf "  Chrome trace written to %s (load in chrome://tracing or Perfetto)\n"
      file
  | _ -> ());
  if ok then 0 else 2

let bench_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"BENCH" ~doc:"bfs | cc | prd | radii | spmm | spmv | residual | mtmul | sddmm")

let variant_arg =
  Arg.(
    value & pos 1 string "phloem"
    & info [] ~docv:"VARIANT" ~doc:"serial | phloem | data-parallel | manual")

let input_arg =
  Arg.(value & pos 2 string "USA-road-d-USA" & info [] ~docv:"INPUT" ~doc:"input name (Table IV/V)")

let scale_arg = Arg.(value & opt float 1.0 & info [ "scale" ] ~doc:"input scale factor")

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE" ~doc:"write a machine-readable JSON report to $(docv)")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:"write a Chrome trace-event file (chrome://tracing / Perfetto) to $(docv)")

let interval_arg =
  Arg.(
    value & opt int 1000
    & info [ "sample-interval" ] ~docv:"N"
        ~doc:"telemetry sampling interval in cycles (with --json / --trace-out)")

let jobs_arg =
  Arg.(
    value
    & opt int (Phloem_util.Pool.default_jobs ())
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "domains used to run the independent simulations (default: the \
           recommended domain count; 1 = fully serial)")

let profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "print the bottleneck-attribution report: per-stage issue/stall \
           balance, per-queue full/empty stall cycles and occupancy, the \
           critical queue, and a headroom estimate (also added to --json \
           under \"analysis\")")

let inject_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "inject" ] ~docv:"PLAN"
        ~doc:
          "inject deterministic faults into the variant run (the serial \
           baseline stays clean). $(docv) is a comma-separated plan, e.g. \
           $(b,drop\\@q0:0.01,spike\\@dram+400:0.05,stall\\@t1:1000x200,kill\\@t2:5000,poison:0.1). \
           Replays with the same plan and --fault-key inject identical faults.")

let fault_key_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "fault-key" ] ~docv:"K"
        ~doc:"PRNG key for the --inject plan (default 0); fixes the replay")

let watchdog_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "watchdog-window" ] ~docv:"N"
        ~doc:
          "declare livelock (exit 6) when no micro-op has retired for $(docv) \
           cycles while the clock still advances (default 5000000)")

let budget_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "cycle-budget" ] ~docv:"N"
        ~doc:
          "abort with a budget-exhausted report (exit 7) past $(docv) \
           simulated cycles (default 500000000)")

let remote_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "remote" ] ~docv:"SOCK"
        ~doc:
          "do not simulate locally: send the job to the phloemd daemon \
           listening on Unix socket $(docv) and report its response \
           (repeated identical jobs are served from the daemon's \
           content-addressed cache). --json writes the daemon's result \
           payload verbatim; --trace-out/--profile/--jobs do not apply")

let autotune_arg =
  Arg.(
    value & flag
    & info [ "autotune" ]
        ~doc:
          "ignore VARIANT and run the analysis-guided autotuner over the \
           full design space (cut sets x queue capacities x replication x \
           chaining x cores) on this benchmark/input, seeding the search \
           with every PGO cut set; prints the winning configuration and \
           search counters, and writes the full search trace to --json")

let beam_arg =
  Arg.(
    value & opt int 4
    & info [ "beam" ] ~docv:"N"
        ~doc:"(--autotune) expand only the $(docv) best survivors per wave")

let search_budget_arg =
  Arg.(
    value & opt int 64
    & info [ "search-budget" ] ~docv:"N"
        ~doc:
          "(--autotune) simulate at most $(docv) configurations in total \
           (distinct from --cycle-budget, which bounds one replay)")

let max_replicas_arg =
  Arg.(
    value & opt int 2
    & info [ "max-replicas" ] ~docv:"N"
        ~doc:"(--autotune) cap pipeline replication at $(docv) copies")

let max_cores_arg =
  Arg.(
    value & opt int 4
    & info [ "max-cores" ] ~docv:"N"
        ~doc:"(--autotune) cap the simulated core count at $(docv)")

let cmd =
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"run one benchmark variant on the Pipette simulator"
       ~man:
         [
           `S Manpage.s_exit_status;
           `P
             "0 on success; 2 on a result mismatch or usage error; 5 if the \
              queue network deadlocks; 6 on livelock (watchdog window with no \
              retirement); 7 when the cycle budget runs out while progress is \
              still being made. Failures 5-7 print a structured forensics \
              report (per-agent blocked-on state, cyclic wait chain, queue \
              occupancy, diagnosis) and write it to --json when given. With \
              --remote: 1 when the daemon is unreachable or responds \
              malformed, 8 when it sheds the request under load (its job \
              queue is full — retry with backoff); remote pipeline failures \
              map to the same 5-7.";
         ])
    Term.(
      const simulate $ bench_arg $ variant_arg $ input_arg $ scale_arg $ json_arg
      $ trace_arg $ interval_arg $ jobs_arg $ profile_arg $ inject_arg
      $ fault_key_arg $ watchdog_arg $ budget_arg $ remote_arg $ autotune_arg
      $ beam_arg $ search_budget_arg $ max_replicas_arg $ max_cores_arg)

let () = exit (Cmd.eval' cmd)
