(* The repository benchmark. One command runs one named workload for a
   fixed host time and prints its metrics with units, then one JSON result
   line:

     perfbench.exe --workload sweep|tune|serve --seed N --seconds S --trace 0|1

   With --trace 0 the metrics are the end-to-end ones, measured untraced.
   With --trace 1 the run measures untraced and traced rounds and the
   metrics are the per-layer ones; the full traced-run report (self time
   per layer, coverage, tracing overhead) and a Chrome trace of the spans
   are written under perfbench/_out. A failed correctness check makes the
   exit code 1. See perfbench/LAYERS.md for what each metric means on each
   workload. *)

open Phloem_perfbench
module Json = Pipette.Telemetry.Json

(* The per-layer metrics of the result line: the layers every workload
   exercises, plus the ratios an optimisation of the autotuner, the pool or
   the result cache would move (0 on the workloads without that layer).
   The traced-run report under perfbench/_out has every layer metric. *)
let per_layer_names =
  [
    "flat.calls"; "flat.busy_s"; "trace.calls"; "trace.busy_s"; "trace.hit_ratio";
    "engine.calls"; "engine.busy_s"; "engine.sim_cycles"; "engine.cycles_per_s";
    "report.calls"; "report.busy_s"; "coverage"; "tracing_overhead_s";
    "autotune.evals"; "autotune.useful_ratio"; "pool.utilization";
    "serve.result_cache.hit_ratio";
  ]

let unit_of = function
  | "engine.sim_cycles" -> "cycles"
  | "engine.cycles_per_s" -> "cycles/s"
  | "coverage" | "trace.hit_ratio" | "autotune.useful_ratio" | "pool.utilization"
  | "serve.result_cache.hit_ratio" ->
    "ratio"
  | n when Filename.check_suffix n "_s" -> "s"
  | _ -> "count"

(* Run from the checkout root, after run.py has built both executables. *)
let out = Filename.concat "perfbench" "_out"
let phloemd = String.concat Filename.dir_sep [ "_build"; "default"; "bin"; "phloemd.exe" ]

let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_line ~correct ~attempted ~failed (ms : Common.metric list) =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (m : Common.metric) ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}"
              (Json.to_string (Json.Str m.Common.m_name))
              (number m.Common.m_value)
              (Json.to_string (Json.Str m.Common.m_unit)))
          ms))

let () =
  let workload = ref "" and seed = ref Inputs.default_seed and seconds = ref 10.0 in
  let trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME sweep | tune | serve");
      ("--seed", Arg.Set_int seed, Printf.sprintf "N input / stream seed (default %d; held out: %d)" Inputs.default_seed Inputs.held_out_seed);
      ("--seconds", Arg.Set_float seconds, "S host seconds of measured rounds (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer traced run (1)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload sweep|tune|serve --seed N --seconds S --trace 0|1";
  if !trace <> 0 && !trace <> 1 then (prerr_endline "perfbench: --trace is 0 or 1"; exit 2);
  (try Unix.mkdir out 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let traced = !trace = 1 and seed = !seed and seconds = !seconds in
  let jobs = Phloem_util.Pool.default_jobs () in
  let r =
    match !workload with
    | "sweep" -> Sweep.run ~seed ~seconds ~traced
    | "tune" -> Tune.run ~seed ~seconds ~traced ~jobs
    | "serve" -> Serve.run ~exe:phloemd ~dir:out ~seed ~seconds ~traced ~jobs
    | w ->
      Printf.eprintf "perfbench: unknown workload %S (sweep | tune | serve)\n" w;
      exit 2
  in
  Printf.printf "%s: seed %d, %.0f s, %s\n" !workload seed seconds
    (if traced then "traced" else "untraced");
  Printf.printf "end-to-end (untraced rounds):\n";
  List.iter (fun m -> print_endline (Common.fmt_metric m)) r.Common.e2e;
  List.iter print_endline r.Common.report;
  let shown =
    if not traced then r.Common.e2e
    else begin
      Printf.printf "per-layer (traced rounds):\n";
      List.iter (fun m -> print_endline (Common.fmt_metric m)) r.Common.layers;
      let base = Filename.concat out !workload in
      Common.write_file (base ^ "-layers.json")
        (Json.to_string
           (Json.Obj
              [
                ("end_to_end", Common.json_of_metrics r.Common.e2e);
                ("per_layer", Common.json_of_metrics r.Common.layers);
                ("report", Json.List (List.map (fun s -> Json.Str s) r.Common.report));
              ]));
      Option.iter (fun j -> Common.write_file (base ^ "-trace.json") (Json.to_string j)) r.Common.trace;
      List.map
        (fun name ->
          match List.find_opt (fun (m : Common.metric) -> m.Common.m_name = name) r.Common.layers with
          | Some m -> m
          | None -> Common.metric name (unit_of name) 0.0)
        per_layer_names
    end
  in
  let bad = List.filter (fun (m : Common.metric) -> not (Float.is_finite m.Common.m_value)) shown in
  List.iter (fun (m : Common.metric) -> Printf.eprintf "perfbench: %s is not finite\n" m.Common.m_name) bad;
  let failed = r.Common.failed + List.length bad in
  Printf.printf "correctness: %d of %d checks failed\n" failed r.Common.attempted;
  print_endline (result_line ~correct:(failed = 0) ~attempted:r.Common.attempted ~failed shown);
  exit (if failed = 0 then 0 else 1)
