(* The `sweep` workload: the paper's Fig. 9-11 evaluation, cold and on one
   domain. Each (kernel, input) binding runs serial, phloem-static (4
   stages), data-parallel (4 threads) and manual, with the simulator's memo
   caches cleared first, so each trace is made once and replayed once and
   no cache ever hits. *)

open Phloem_workloads
module Sim = Pipette.Sim
module Json = Pipette.Telemetry.Json

type bench = { bn_kernel : string; bn_input : string; bn_bound : Workload.bound }

type cell = {
  c_name : string;  (* kernel/input/variant *)
  c_cycles : int;
  c_ok : bool;
  c_latency : float;  (* host seconds, compile through report *)
}

(* Work counted at layer boundaries during traced rounds. *)
type tally = {
  mutable t_trace_uops : int;
  mutable t_engine_uops : int;
  mutable t_sim_cycles : int;
  mutable t_report_bytes : int;
  mutable t_ops_out : int;
  t_passes : (string, float) Hashtbl.t;  (* pass name -> summed wall *)
}

let tally () =
  {
    t_trace_uops = 0;
    t_engine_uops = 0;
    t_sim_cycles = 0;
    t_report_bytes = 0;
    t_ops_out = 0;
    t_passes = Hashtbl.create 8;
  }

let variants = [ "serial"; "data-parallel"; "phloem-static"; "manual" ]

let setup ~spans ~scale ~seed =
  let graphs = Span.with_ spans "gen" (fun () -> Inputs.graphs ~scale ~seed) in
  let matrices = Span.with_ spans "gen" (fun () -> Inputs.matrices ~scale ~seed) in
  let bind kernel input f =
    { bn_kernel = kernel; bn_input = input; bn_bound = Span.with_ spans "bind" f }
  in
  List.concat_map
    (fun (input, g) ->
      List.map (fun k -> bind k input (fun () -> Inputs.bind_graph k g)) Inputs.graph_kernels)
    graphs
  @ List.map (fun (input, m) -> bind "spmm" input (fun () -> Inputs.bind_matrix m)) matrices

(* Static compilation; a traced run takes the pass manager's report too. *)
let compile ~spans ~tally serial =
  Span.with_ spans "compile" (fun () ->
      if Span.enabled spans then begin
        let p, rep = Phloem.Compile.static_flow_report ~stages:4 serial in
        List.iter
          (fun (pr : Phloem.Pass.pass_report) ->
            Hashtbl.replace tally.t_passes pr.Phloem.Pass.pr_name
              (pr.Phloem.Pass.pr_wall_s
              +. Option.value ~default:0.0
                   (Hashtbl.find_opt tally.t_passes pr.Phloem.Pass.pr_name)))
          rep.Phloem.Pass.rep_passes;
        tally.t_ops_out <- tally.t_ops_out + Phloem.Pass.count_ops p;
        p
      end
      else Phloem.Compile.static_flow ~stages:4 serial)

let run_cell ~spans ~tally (bn : bench) variant : cell option =
  let b = bn.bn_bound in
  let t0 = Clock.now () in
  let name = String.concat "/" [ bn.bn_kernel; bn.bn_input; variant ] in
  let simulate (p, inputs) =
    ignore (Span.with_ spans "flat" (fun () -> Sim.prepare p));
    let fr = Span.with_ spans "trace" (fun () -> Sim.functional ~inputs p) in
    let r = Span.with_ spans "engine" (fun () -> Sim.simulate p fr) in
    let ok = Span.with_ spans "check" (fun () -> Workload.check b r.Sim.sr_functional) in
    let bytes =
      Span.with_ spans "report" (fun () -> String.length (Json.to_string (Sim.json_of_run r)))
    in
    tally.t_trace_uops <- tally.t_trace_uops + fr.Phloem_ir.Interp.r_instrs;
    tally.t_engine_uops <- tally.t_engine_uops + Sim.instrs r;
    tally.t_sim_cycles <- tally.t_sim_cycles + Sim.cycles r;
    tally.t_report_bytes <- tally.t_report_bytes + bytes;
    (Sim.cycles r, ok)
  in
  let pipeline () =
    match variant with
    | "serial" -> Some b.Workload.b_serial
    | "data-parallel" -> Some (b.Workload.b_data_parallel ~threads:4)
    | "phloem-static" -> Some (compile ~spans ~tally (fst b.Workload.b_serial), snd b.Workload.b_serial)
    | _ -> b.Workload.b_manual
  in
  match Span.with_ spans "cell" (fun () -> Option.map simulate (pipeline ())) with
  | None -> None
  | Some (cycles, ok) ->
    Some { c_name = name; c_cycles = cycles; c_ok = ok; c_latency = Clock.now () -. t0 }
  | exception e ->
    Printf.eprintf "sweep: %s failed: %s\n%!" name (Printexc.to_string e);
    Some { c_name = name; c_cycles = 0; c_ok = false; c_latency = Clock.now () -. t0 }

(* One binding through every variant, serial first. The memo caches start
   empty for every binding: no cell would hit them anyway, and the process
   then holds one binding's traces instead of up to 64, which keeps the
   heap small and the timings steady. *)
let run_bench ~spans ~tally bn =
  Sim.clear_caches ();
  List.filter_map (run_cell ~spans ~tally bn) variants

type round = {
  rd_wall : float;
  rd_cells : cell list;
  rd_digest : string;  (* of every cell's cycle count *)
  rd_gmean : float;  (* serial over phloem-static cycles, geometric mean *)
  rd_rss : float;  (* process VmHWM at the end of the round *)
}

let speedup cells =
  let find v =
    List.find_opt (fun c -> Filename.basename c.c_name = v) cells
  in
  match (find "serial", find "phloem-static") with
  | Some s, Some p when s.c_cycles > 0 && p.c_cycles > 0 ->
    float_of_int s.c_cycles /. float_of_int p.c_cycles
  | _ -> 1.0

let round ~spans ~tally benches =
  let t0 = Clock.now () in
  let per_bench =
    Span.with_ spans "round" (fun () -> List.map (run_bench ~spans ~tally) benches)
  in
  let wall = Clock.now () -. t0 in
  let cells = List.concat per_bench in
  {
    rd_wall = wall;
    rd_cells = cells;
    rd_digest =
      Common.digest_lines
        (List.map (fun c -> Printf.sprintf "%s=%d" c.c_name c.c_cycles) cells);
    rd_gmean = Phloem_util.Stats.gmean (List.map speedup per_bench);
    rd_rss = Common.peak_rss_mb ();
  }

let cycles_of rd = List.fold_left (fun a c -> a + c.c_cycles) 0 rd.rd_cells

let end_to_end ~setup_s rounds =
  let open Common in
  let walls = List.map (fun r -> r.rd_wall) rounds in
  let lat = List.concat_map (fun r -> List.map (fun c -> c.c_latency) r.rd_cells) rounds in
  [
    metric "setup_s" "s" setup_s;
    metric "wall_s" "s" (median walls);
    metric "items_per_s" "1/s"
      (median (List.map (fun r -> float_of_int (List.length r.rd_cells) /. r.rd_wall) rounds));
    metric "item_p50_ms" "ms" (1000.0 *. percentile 0.50 lat);
    (* p90: a run has a few hundred cells *)
    metric "item_tail_ms" "ms" (1000.0 *. percentile 0.90 lat);
    metric "sim_cycles_per_s" "cycles/s"
      (median (List.map (fun r -> float_of_int (cycles_of r) /. r.rd_wall) rounds));
    metric "sim_gmean_speedup" "x" (List.hd rounds).rd_gmean;
    (* after the first round, which is what one sweep in a fresh process
       costs; later rounds only add heap fragmentation *)
    metric "peak_rss_mb" "MB" (List.hd rounds).rd_rss;
  ]

(* Per-layer metrics of the traced rounds, per round. *)
let per_layer ~setup_spans ~minic_bytes ~round_spans ~tally ~traced ~untraced =
  let open Common in
  let rounds = List.length traced in
  let per x = x /. float_of_int rounds in
  let setup = Span.layers setup_spans and ls = Span.layers round_spans in
  let l name = Span.layer ls name in
  let layer_metrics = layer_metrics ~rounds in
  let cc = Sim.cache_counters () in
  let hr h m = ratio (float_of_int h) (float_of_int (h + m)) in
  let wall = List.fold_left (fun a r -> a +. r.rd_wall) 0.0 traced in
  let layer_names = [ "compile"; "flat"; "trace"; "engine"; "check"; "report" ] in
  let covered = List.fold_left (fun a nm -> a +. (l nm).Span.l_self) 0.0 layer_names in
  let median_wall rs = median (List.map (fun r -> r.rd_wall) rs) in
  let minic = Span.layer setup "minic" in
  let metrics =
    Common.layer_metrics "minic" minic
    @ [
        metric "minic.bytes_per_s" "B/s" (ratio (float_of_int minic_bytes) minic.Span.l_busy);
        metric "bind.busy_s" "s" (Span.layer setup "bind").Span.l_busy;
        metric "gen.busy_s" "s" (Span.layer setup "gen").Span.l_busy;
      ]
    @ layer_metrics "compile" (l "compile")
    @ [ metric "compile.ops_out" "count" (per (float_of_int tally.t_ops_out)) ]
    @ List.map
        (fun (p, s) -> metric (Printf.sprintf "compile.pass.%s.busy_s" p) "s" (per s))
        (List.sort compare (List.of_seq (Hashtbl.to_seq tally.t_passes)))
    @ layer_metrics "flat" (l "flat")
    @ [ metric "flat.hit_ratio" "ratio" (hr cc.Sim.cc_program_hits cc.Sim.cc_program_misses) ]
    @ layer_metrics "trace" (l "trace")
    @ [
        metric "trace.uops" "uops" (per (float_of_int tally.t_trace_uops));
        metric "trace.uops_per_s" "uops/s" (ratio (float_of_int tally.t_trace_uops) (l "trace").Span.l_busy);
        metric "trace.hit_ratio" "ratio" (hr cc.Sim.cc_trace_hits cc.Sim.cc_trace_misses);
        metric "trace.evictions" "count" (float_of_int cc.Sim.cc_trace_evictions);
      ]
    @ layer_metrics "engine" (l "engine")
    @ [
        metric "engine.uops" "uops" (per (float_of_int tally.t_engine_uops));
        metric "engine.sim_cycles" "cycles" (per (float_of_int tally.t_sim_cycles));
        metric "engine.uops_per_s" "uops/s" (ratio (float_of_int tally.t_engine_uops) (l "engine").Span.l_busy);
        metric "engine.cycles_per_s" "cycles/s" (ratio (float_of_int tally.t_sim_cycles) (l "engine").Span.l_busy);
      ]
    @ layer_metrics "check" (l "check")
    @ layer_metrics "report" (l "report")
    @ [
        metric "report.bytes" "B" (per (float_of_int tally.t_report_bytes));
        metric "coverage" "ratio" (ratio covered wall);
        metric "tracing_overhead_s" "s" (median_wall traced -. median_wall untraced);
      ]
  in
  let report =
    layer_report ~workload:"sweep" ~rounds
      ~layers:(List.map (fun nm -> (nm, l nm)) ("round" :: "cell" :: layer_names))
      ~coverage:(ratio covered wall) ~tolerance:"expected >= 0.95: every cell's work sits in a layer span"
      ~overhead:(median_wall traced -. median_wall untraced)
  in
  (metrics, report)

(* Correctness: every cell matches the reference, and every round (traced
   or not) reproduces the first round's cycle digest and speedup. *)
let gate rounds =
  let r0 = List.hd rounds in
  let bad_cells =
    List.concat_map (fun r -> List.filter (fun c -> not c.c_ok) r.rd_cells) rounds
  in
  List.iter (fun c -> Printf.eprintf "sweep: %s does not match the reference\n%!" c.c_name) bad_cells;
  let bad_rounds =
    List.filter (fun r -> r.rd_digest <> r0.rd_digest || r.rd_gmean <> r0.rd_gmean) rounds
  in
  if bad_rounds <> [] then Printf.eprintf "sweep: cycle digests differ across rounds\n%!";
  ( List.fold_left (fun a r -> a + List.length r.rd_cells + 1) 0 rounds,
    List.length bad_cells + List.length bad_rounds )

let run ~seed ~seconds ~traced =
  let scale = 1.0 in
  let off = Span.create ~enabled:false in
  let setup_s, benches = Common.timed_setups ~n:11 (fun () -> setup ~spans:off ~scale ~seed) in
  let untraced_for = if traced then seconds /. 2.0 else seconds in
  let untraced = Common.repeat_for ~seconds:untraced_for (fun _ -> round ~spans:off ~tally:(tally ()) benches) in
  let e2e = end_to_end ~setup_s untraced in
  if not traced then
    let attempted, failed = gate untraced in
    { Common.attempted; failed; e2e; layers = []; report = []; trace = None }
  else begin
    let setup_spans = Span.create ~enabled:true in
    let minic_bytes = Inputs.lower_sources setup_spans in
    let benches = setup ~spans:setup_spans ~scale ~seed in
    let spans = Span.create ~enabled:true in
    let t = tally () in
    let traced_rounds =
      Common.repeat_for ~seconds:(seconds /. 2.0) (fun _ -> round ~spans ~tally:t benches)
    in
    let attempted, failed = gate (untraced @ traced_rounds) in
    let layers, report =
      per_layer ~setup_spans:(Span.spans setup_spans) ~minic_bytes
        ~round_spans:(Span.spans spans) ~tally:t ~traced:traced_rounds ~untraced
    in
    let all = Span.spans setup_spans @ Span.spans spans in
    {
      Common.attempted;
      failed;
      e2e;
      layers;
      report;
      trace = Some (Span.trace_json ~process:"perfbench sweep" all);
    }
  end
