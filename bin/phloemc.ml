(* phloemc: the Phloem compiler CLI.

   Reads a minic source file containing a [#pragma phloem] kernel, runs the
   decoupling-point cost model and the pass pipeline, and prints the
   resulting pipeline-parallel program. Because array extents are part of
   the IR, array parameters are bound to placeholder lengths (--length).

   Pass-manager introspection: [--time-passes] prints per-pass wall time and
   op-count deltas, [--verify-each] re-validates the IR after every pass,
   [--dump-ir[=DIR]] writes numbered IR snapshots, [--print-pipeline] lists
   the registered passes the current flags select. *)

open Cmdliner
module Log = Phloem_util.Log

let compile_cmd src_file stages length list_cuts flags_off time_passes verify_each
    dump_ir print_pipeline log_level autotune beam budget autotune_json =
  (match Option.bind log_level Log.level_of_string with
  | Some l -> Log.set_level l
  | None ->
    (match log_level with
    | Some bad ->
      Printf.eprintf "phloemc: unknown log level %s (debug|info|warn|error)\n" bad
    | None -> ()));
  let src = In_channel.with_open_text src_file In_channel.input_all in
  let lw = Phloem_minic.Lower.of_source src in
  let arrays =
    List.map
      (fun (name, ty) ->
        ( name,
          Array.make length
            (match ty with
            | Phloem_ir.Types.Ety_int -> Phloem_ir.Types.Vint 0
            | Phloem_ir.Types.Ety_float -> Phloem_ir.Types.Vfloat 0.0) ))
      lw.Phloem_minic.Lower.lw_arrays
  in
  let scalars =
    List.map
      (fun (name, ty) ->
        ( name,
          match ty with
          | Phloem_ir.Types.Ety_int -> Phloem_ir.Types.Vint 1
          | Phloem_ir.Types.Ety_float -> Phloem_ir.Types.Vfloat 1.0 ))
      lw.Phloem_minic.Lower.lw_scalars
  in
  let serial, inputs = Phloem_minic.Lower.to_serial_pipeline lw ~arrays ~scalars in
  if list_cuts then begin
    print_endline "Decoupling-point candidates (best first):";
    List.iteri
      (fun i (c : Phloem.Costmodel.cut) ->
        Printf.printf "  %2d. loads %s%s, score %.1f\n" i
          (String.concat "," (List.map string_of_int c.Phloem.Costmodel.cut_loads))
          (if c.Phloem.Costmodel.cut_prefetch then " (prefetch-only)" else "")
          c.Phloem.Costmodel.cut_score)
      (Phloem.Compile.candidates serial)
  end;
  let flags =
    List.fold_left
      (fun f off ->
        let open Phloem.Decouple in
        match off with
        | "recompute" -> { f with f_recompute = false }
        | "ra" -> { f with f_ra = false }
        | "cv" -> { f with f_cv = false }
        | "handlers" -> { f with f_handlers = false }
        | "dce" -> { f with f_dce = false }
        | "chain" -> { f with f_chain = false }
        | other ->
          Printf.eprintf
            "phloemc: unknown pass %s (recompute|ra|cv|handlers|dce|chain)\n" other;
          exit 1)
      Phloem.Decouple.all_passes flags_off
  in
  if print_pipeline then begin
    print_endline "Pass pipeline (in order):";
    List.iter
      (fun pass ->
        Printf.printf "  %-12s %s\n" (Phloem.Pass.name_of pass)
          (Phloem.Pass.describe_of pass))
      (Phloem.Passes.standard ~flags)
  end;
  if autotune then begin
    (* Search the full design space on the placeholder-bound kernel: every
       output array is checked against the serial run, so the winning
       configuration is known-correct for these bindings. *)
    let check_arrays = List.map fst arrays in
    let outcome =
      Phloem_util.Pool.with_pool (fun pool ->
          Phloem.Autotune.tune ~flags ~beam ~budget ~pool ~check_arrays
            ~training:[ (serial, inputs) ] ())
    in
    print_string (Phloem.Autotune.summary outcome);
    (match autotune_json with
    | Some file ->
      Phloem_util.Json.to_file file
        (Phloem.Autotune.json_of_outcome outcome);
      Printf.printf ";; search trace written to %s\n" file
    | None -> ());
    0
  end
  else
  let options =
    { Phloem.Pass.verify_each; dump_ir; keep_snapshots = false }
  in
  match Phloem.Compile.static_flow_report ~flags ~options ~stages serial with
  | p, report ->
    print_endline (Phloem_ir.Printer.pipeline_to_string p);
    Printf.printf "\n;; %d stages, %d queues, %d reference accelerators\n"
      (List.length p.Phloem_ir.Types.p_stages)
      (List.length p.Phloem_ir.Types.p_queues)
      (List.length p.Phloem_ir.Types.p_ras);
    if time_passes then print_endline (Phloem.Pass.report_to_string report);
    Option.iter (Printf.printf ";; IR snapshots written to %s/\n") dump_ir;
    0
  | exception Phloem.Compile.Unsupported msg ->
    Printf.eprintf "phloemc: %s\n" msg;
    1
  | exception Phloem.Pass.Verify_failed (pass, msg) ->
    Printf.eprintf "phloemc: verification failed after pass %s: %s\n" pass msg;
    1

let src_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"SOURCE.c" ~doc:"minic source file")

let stages_arg =
  Arg.(value & opt int 4 & info [ "stages"; "s" ] ~doc:"target pipeline stage count")

let length_arg =
  Arg.(value & opt int 64 & info [ "length" ] ~doc:"placeholder array length for binding")

let list_cuts_arg =
  Arg.(value & flag & info [ "list-cuts" ] ~doc:"print the ranked decoupling points")

let flags_off_arg =
  Arg.(
    value & opt_all string []
    & info [ "disable" ]
        ~doc:"disable a pass: recompute, ra, cv, handlers, dce, chain (repeatable)")

let time_passes_arg =
  Arg.(
    value & flag
    & info [ "time-passes" ] ~doc:"print per-pass wall time and op-count deltas")

let verify_each_arg =
  Arg.(
    value & flag
    & info [ "verify-each" ]
        ~doc:"re-validate the IR and check pass invariants after every pass")

let dump_ir_arg =
  Arg.(
    value
    & opt ~vopt:(Some "phloem-ir") (some string) None
    & info [ "dump-ir" ] ~docv:"DIR"
        ~doc:"write numbered IR snapshots after every pass (default DIR: phloem-ir)")

let print_pipeline_arg =
  Arg.(
    value & flag
    & info [ "print-pipeline" ]
        ~doc:"list the registered passes the current flags select")

let log_level_arg =
  Arg.(
    value & opt (some string) None
    & info [ "log-level" ] ~docv:"LEVEL"
        ~doc:"diagnostics threshold: debug, info, warn (default), or error")

let autotune_arg =
  Arg.(
    value & flag
    & info [ "autotune" ]
        ~doc:
          "run the analysis-guided autotuner over the full design space \
           (cut sets x queue capacities x replication x chaining x cores) \
           on the placeholder-bound kernel instead of the static flow; \
           prints the winning configuration and search counters. The \
           --disable flags seed the search's pass gates.")

let beam_arg =
  Arg.(
    value & opt int 4
    & info [ "beam" ] ~docv:"N"
        ~doc:"(--autotune) expand only the $(docv) best survivors per wave")

let budget_arg =
  Arg.(
    value & opt int 64
    & info [ "budget" ] ~docv:"N"
        ~doc:"(--autotune) simulate at most $(docv) configurations in total")

let autotune_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "autotune-json" ] ~docv:"FILE"
        ~doc:
          "(--autotune) write the winning configuration and the full \
           search trace (per-candidate cycles, verdicts, move provenance) \
           as JSON to $(docv)")

let cmd =
  Cmd.v
    (Cmd.info "phloemc" ~doc:"compile a serial minic kernel into a Pipette pipeline")
    Term.(
      const compile_cmd $ src_arg $ stages_arg $ length_arg $ list_cuts_arg
      $ flags_off_arg $ time_passes_arg $ verify_each_arg $ dump_ir_arg
      $ print_pipeline_arg $ log_level_arg $ autotune_arg $ beam_arg
      $ budget_arg $ autotune_json_arg)

let () = exit (Cmd.eval' cmd)
