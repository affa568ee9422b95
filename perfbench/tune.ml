(* The `tune` workload: Autotune.tune for each of the five kernels on one
   seeded training-sized input, default beam and budget, over a Pool of
   [jobs] domains. A few traces are replayed under dozens of queue-capacity
   and core configs and every cut-set candidate is compiled, so engine
   replay dominates; it is the only workload where the pool, the search
   loop and Analysis do real work. *)

open Phloem_workloads
module Sim = Pipette.Sim
module Json = Pipette.Telemetry.Json
module A = Phloem.Autotune
module M = Phloem_util.Metrics

(* Training inputs are smaller than the sweep's: one tune replays each
   trace under up to 64 configurations. *)
let training_scale = 0.5

(* One seeded training input per kernel, like the paper's training split
   (an internet-like R-MAT graph, a road-like grid), and a banded matrix,
   whose searches vary least from seed to seed. *)
let setup ~spans ~scale ~seed =
  let graphs = Span.with_ spans "gen" (fun () -> Inputs.graphs ~scale ~seed) in
  let matrices = Span.with_ spans "gen" (fun () -> Inputs.matrices ~scale ~seed) in
  let g name = List.assoc name graphs in
  let bind kernel f = (kernel, Span.with_ spans "bind" f) in
  [
    bind "bfs" (fun () -> Inputs.bind_graph "bfs" (g "rmat"));
    bind "cc" (fun () -> Inputs.bind_graph "cc" (g "grid"));
    bind "prd" (fun () -> Inputs.bind_graph "prd" (g "rmat"));
    bind "radii" (fun () -> Inputs.bind_graph "radii" (g "grid"));
    bind "spmm" (fun () -> Inputs.bind_matrix (List.assoc "banded" matrices));
  ]

(* Each kernel's search starts with empty memo caches, as a fresh
   `simulate --autotune` would. *)
let tune_kernel ?budget ~pool ~metrics (b : Workload.bound) =
  Sim.clear_caches ();
  A.tune ?budget ~pool ~metrics ~check_arrays:b.Workload.b_check_arrays
    ~training:[ b.Workload.b_serial ] ()

(* The pipeline a configuration names, built through the same public
   passes Autotune uses. *)
let pipeline_of ?(report = ignore) serial (c : A.config) =
  let p =
    if c.A.at_cuts = [] then serial
    else
      let p, rep =
        Phloem.Compile.with_cuts_report
          ~flags:{ Phloem.Decouple.all_passes with Phloem.Pass.f_chain = c.A.at_chain }
          serial c.A.at_cuts
      in
      report rep;
      p
  in
  if c.A.at_replicas > 1 then
    Phloem.Replicate.apply p
      {
        Phloem.Replicate.r_replicas = c.A.at_replicas;
        r_private_arrays = [];
        r_private_params = [];
        r_distribute = None;
      }
  else p

let cfg_of (c : A.config) = Pipette.Config.with_cores Pipette.Config.default c.A.at_cores

(* Autotune's functional op budget for candidates of this serial run. *)
let budget_of (serial_fr : Phloem_ir.Interp.result) =
  max 2_000_000 (8 * serial_fr.Phloem_ir.Interp.r_instrs)

(* Re-run the winning configuration outside the search: it must match the
   pure-OCaml reference and reproduce the cycles the search reported. *)
let verify (b : Workload.bound) (o : A.outcome) =
  let serial, inputs = b.Workload.b_serial in
  match
    let serial_fr = Sim.functional ~inputs serial in
    let p = pipeline_of serial o.A.o_best in
    let fr =
      Phloem_ir.Interp.with_max_ops (budget_of serial_fr) (fun () -> Sim.functional ~inputs p)
    in
    let r = Sim.simulate ~cfg:(cfg_of o.A.o_best) ~queue_caps:o.A.o_best.A.at_queue_caps p fr in
    Workload.check b fr && [ Sim.cycles r ] = o.A.o_best_cycles
  with
  | ok -> ok
  | exception e ->
    Printf.eprintf "tune: re-running the winner raised %s\n%!" (Printexc.to_string e);
    false

type round = {
  rd_wall : float;
  rd_outcomes : (string * Workload.bound * A.outcome) list;
  rd_digest : string;  (* of every outcome's JSON *)
  rd_rss : float;  (* process VmHWM at the end of the round *)
}

let round ~spans ~pool ~metrics kernels =
  let t0 = Clock.now () in
  let outs =
    Span.with_ spans "round" (fun () ->
        List.map
          (fun (k, b) -> (k, b, Span.with_ spans "autotune" (fun () -> tune_kernel ~pool ~metrics b)))
          kernels)
  in
  let wall = Clock.now () -. t0 in
  {
    rd_wall = wall;
    rd_outcomes = outs;
    rd_digest =
      Common.digest_lines (List.map (fun (_, _, o) -> Json.to_string (A.json_of_outcome o)) outs);
    rd_rss = Common.peak_rss_mb ();
  }

let evals rd = List.fold_left (fun a (_, _, o) -> a + o.A.o_simulated) 0 rd.rd_outcomes

(* Simulated cycles replayed in a round: every surviving candidate on its
   training input, plus the serial baselines. *)
let sim_cycles rd =
  List.fold_left
    (fun a (_, _, o) ->
      List.fold_left
        (fun a (t : A.attempt) ->
          match t.A.t_status with
          | A.Run_ok { ok_cycles; _ } -> a + List.fold_left ( + ) 0 ok_cycles
          | _ -> a)
        (a + List.fold_left ( + ) 0 o.A.o_serial_cycles)
        o.A.o_trace)
    0 rd.rd_outcomes

let gmean rd = Phloem_util.Stats.gmean (List.map (fun (_, _, o) -> o.A.o_best_gmean) rd.rd_outcomes)

let eval_hist metrics = M.observed (M.histogram metrics "autotune_eval_s")

let end_to_end ~setup_s ~metrics rounds =
  let open Common in
  let h = eval_hist metrics in
  [
    metric "setup_s" "s" setup_s;
    metric "wall_s" "s" (median (List.map (fun r -> r.rd_wall) rounds));
    metric "items_per_s" "1/s"
      (median (List.map (fun r -> float_of_int (evals r) /. r.rd_wall) rounds));
    metric "item_p50_ms" "ms" (1000.0 *. Phloem_util.Stats.percentile_hist 0.50 h);
    (* p90: a run has about a thousand evaluations *)
    metric "item_tail_ms" "ms" (1000.0 *. Phloem_util.Stats.percentile_hist 0.90 h);
    metric "sim_cycles_per_s" "cycles/s"
      (median (List.map (fun r -> float_of_int (sim_cycles r) /. r.rd_wall) rounds));
    metric "sim_gmean_speedup" "x" (gmean (List.hd rounds));
    (* after the first round, which is what tuning the five kernels in a
       fresh process costs *)
    metric "peak_rss_mb" "MB" (List.hd rounds).rd_rss;
  ]

(* Correctness: each round's winners re-run clean, and every round
   reproduces the first one's outcomes byte for byte. *)
let gate rounds =
  let r0 = List.hd rounds in
  List.fold_left
    (fun (att, bad) r ->
      let wrong =
        List.filter (fun (k, b, o) ->
            let ok = verify b o in
            if not ok then Printf.eprintf "tune: %s winner does not verify\n%!" k;
            not ok)
          r.rd_outcomes
      in
      let drift = r.rd_digest <> r0.rd_digest in
      if drift then Printf.eprintf "tune: outcome digest differs across rounds\n%!";
      (att + List.length r.rd_outcomes + 1, bad + List.length wrong + Bool.to_int drift))
    (0, 0) rounds

(* Work counted while re-executing attempts. *)
type tally = {
  mutable t_uops : int;
  mutable t_cycles : int;
  mutable t_mismatch : int;  (* re-executed cycles differ from the search's *)
  mutable t_report_bytes : int;
  mutable t_ops_out : int;
  t_passes : (string, float) Hashtbl.t;
}

(* The search's internals are not reachable from outside, so the traced
   run re-executes every attempt the search simulated successfully, cold,
   on one domain, with each layer call in its own span. Rejected and
   failed attempts are skipped; the functional op budget is Autotune's. *)
let reexecute ~spans ~tally (kernel, (b : Workload.bound), (o : A.outcome)) =
  Sim.clear_caches ();
  let serial, inputs = b.Workload.b_serial in
  Span.with_ spans ("reexecute " ^ kernel) @@ fun () ->
  let serial_fr = Span.with_ spans "trace" (fun () -> Sim.functional ~inputs serial) in
  let budget = budget_of serial_fr in
  let checked = b.Workload.b_check_arrays in
  List.iter
    (fun (t : A.attempt) ->
      match t.A.t_status with
      | A.Run_ok { ok_cycles; _ } ->
        let c = t.A.t_config in
        let p =
          Span.with_ spans "compile" (fun () ->
              pipeline_of serial c ~report:(fun rep ->
                  List.iter
                    (fun (pr : Phloem.Pass.pass_report) ->
                      let n = pr.Phloem.Pass.pr_name in
                      Hashtbl.replace tally.t_passes n
                        (pr.Phloem.Pass.pr_wall_s
                        +. Option.value ~default:0.0 (Hashtbl.find_opt tally.t_passes n)))
                    rep.Phloem.Pass.rep_passes))
        in
        if c.A.at_cuts <> [] then tally.t_ops_out <- tally.t_ops_out + Phloem.Pass.count_ops p;
        ignore (Span.with_ spans "flat" (fun () -> Sim.prepare p));
        let fr =
          Span.with_ spans "trace" (fun () ->
              Phloem_ir.Interp.with_max_ops budget (fun () -> Sim.functional ~inputs p))
        in
        ignore
          (Span.with_ spans "check" (fun () ->
               List.for_all
                 (fun a ->
                   List.assoc_opt a fr.Phloem_ir.Interp.r_arrays
                   = List.assoc_opt a serial_fr.Phloem_ir.Interp.r_arrays)
                 checked));
        let r =
          Span.with_ spans "engine" (fun () ->
              Sim.simulate ~cfg:(cfg_of c) ~queue_caps:c.A.at_queue_caps p fr)
        in
        ignore
          (Span.with_ spans "analysis" (fun () ->
               Pipette.Analysis.classify (Sim.analyze ~stage_names:(Sim.stage_names p) r)));
        tally.t_uops <- tally.t_uops + Sim.instrs r;
        tally.t_cycles <- tally.t_cycles + Sim.cycles r;
        if [ Sim.cycles r ] <> ok_cycles then tally.t_mismatch <- tally.t_mismatch + 1
      | A.Run_rejected _ | A.Run_failed _ -> ())
    o.A.o_trace;
  let bytes =
    Span.with_ spans "report" (fun () -> String.length (Json.to_string (A.json_of_outcome o)))
  in
  tally.t_report_bytes <- tally.t_report_bytes + bytes

let is_ok (t : A.attempt) = match t.A.t_status with A.Run_ok _ -> true | _ -> false

(* Counts per traced round; layer times from the re-execution of one
   round's successful attempts. *)
let per_layer ~setup_spans ~minic_bytes ~round_spans ~reexec_spans ~metrics ~cc ~tally ~jobs
    ~traced ~untraced =
  let open Common in
  let rounds = List.length traced in
  let per x = x /. float_of_int rounds in
  let setup = Span.layers setup_spans and ls = Span.layers reexec_spans in
  let l = Span.layer ls in
  let snap = M.snapshot metrics in
  let counter k = float_of_int (Option.value ~default:0 (List.assoc_opt k snap.M.sn_counters)) in
  let h = eval_hist metrics in
  let simulated = List.fold_left (fun a r -> a + evals r) 0 traced in
  let ok_attempts rds =
    List.fold_left
      (fun a r ->
        List.fold_left (fun a (_, _, o) -> a + List.length (List.filter is_ok o.A.o_trace)) a r.rd_outcomes)
      0 rds
  in
  let tune = Span.layer (Span.layers round_spans) "autotune" in
  let tune =
    { Span.l_calls = tune.Span.l_calls / rounds; l_busy = per tune.Span.l_busy;
      l_self = per tune.Span.l_self }
  in
  let layer_names = [ "compile"; "flat"; "trace"; "check"; "engine"; "analysis"; "report" ] in
  let covered = List.fold_left (fun a nm -> a +. (l nm).Span.l_self) 0.0 layer_names in
  let median_wall rs = median (List.map (fun r -> r.rd_wall) rs) in
  let coverage = ratio covered (tune.Span.l_busy *. float_of_int jobs) in
  let minic = Span.layer setup "minic" in
  let metrics =
    layer_metrics "minic" minic
    @ [
        metric "minic.bytes_per_s" "B/s" (ratio (float_of_int minic_bytes) minic.Span.l_busy);
        metric "bind.busy_s" "s" (Span.layer setup "bind").Span.l_busy;
        metric "autotune.evals" "count" (per (counter "autotune_evals"));
        metric "autotune.rejected" "count" (per (counter "autotune_rejected"));
        metric "autotune.deduped" "count" (per (counter "autotune_deduped"));
        metric "autotune.waves" "count" (per (counter "autotune_waves"));
        metric "autotune.useful_ratio" "ratio"
          (ratio (float_of_int (ok_attempts traced)) (float_of_int simulated));
        metric "autotune.eval_p50_ms" "ms" (1000.0 *. Phloem_util.Stats.percentile_hist 0.50 h);
        metric "autotune.eval_p90_ms" "ms" (1000.0 *. Phloem_util.Stats.percentile_hist 0.90 h);
        metric "autotune.busy_s" "s" tune.Span.l_busy;
        metric "pool.jobs" "count" (float_of_int jobs);
        metric "pool.utilization" "ratio"
          (ratio (per (Phloem_util.Stats.hist_sum h)) (tune.Span.l_busy *. float_of_int jobs));
      ]
    @ layer_metrics "compile" (l "compile")
    @ [ metric "compile.ops_out" "count" (float_of_int tally.t_ops_out) ]
    @ List.map
        (fun (p, s) -> metric (Printf.sprintf "compile.pass.%s.busy_s" p) "s" s)
        (List.sort compare (List.of_seq (Hashtbl.to_seq tally.t_passes)))
    @ layer_metrics "flat" (l "flat")
    @ layer_metrics "trace" (l "trace")
    @ [
        metric "trace.hit_ratio" "ratio"
          (ratio (float_of_int cc.Sim.cc_trace_hits)
             (float_of_int (cc.Sim.cc_trace_hits + cc.Sim.cc_trace_misses)));
      ]
    @ layer_metrics "engine" (l "engine")
    @ [
        metric "engine.uops" "uops" (float_of_int tally.t_uops);
        metric "engine.sim_cycles" "cycles" (float_of_int tally.t_cycles);
        metric "engine.uops_per_s" "uops/s" (ratio (float_of_int tally.t_uops) (l "engine").Span.l_busy);
        metric "engine.cycles_per_s" "cycles/s" (ratio (float_of_int tally.t_cycles) (l "engine").Span.l_busy);
      ]
    @ layer_metrics "analysis" (l "analysis")
    @ layer_metrics "check" (l "check")
    @ layer_metrics "report" (l "report")
    @ [
        metric "report.bytes" "B" (float_of_int tally.t_report_bytes);
        metric "coverage" "ratio" coverage;
        metric "tracing_overhead_s" "s" (median_wall traced -. median_wall untraced);
      ]
  in
  let report =
    Printf.sprintf
      "tune: the layers below re-execute the %d successful attempts of the last traced round \
       outside the search, on one domain, from cold caches"
      (ok_attempts [ List.hd (List.rev traced) ])
    :: layer_report ~workload:"tune" ~rounds:1
         ~layers:(("autotune", tune) :: List.map (fun nm -> (nm, l nm)) layer_names)
         ~coverage
         ~tolerance:
           "re-executed layer self time over autotune busy time x pool jobs; expected \
            0.3-0.8: the search also runs its rejected and failed candidates, up to the \
            2M-op budget each, and those are not re-executed"
         ~overhead:(median_wall traced -. median_wall untraced)
  in
  (metrics, report)

let run ~seed ~seconds ~traced ~jobs =
  let off = Span.create ~enabled:false in
  let scale = training_scale in
  let setup_s, kernels = Common.timed_setups ~n:11 (fun () -> setup ~spans:off ~scale ~seed) in
  Phloem_util.Pool.with_pool ~jobs @@ fun pool ->
  let jobs = Phloem_util.Pool.jobs pool in
  let metrics = M.create () in
  let untraced_for = if traced then seconds /. 2.0 else seconds in
  let untraced =
    Common.repeat_for ~seconds:untraced_for (fun _ -> round ~spans:off ~pool ~metrics kernels)
  in
  let e2e = end_to_end ~setup_s ~metrics untraced in
  if not traced then
    let attempted, failed = gate untraced in
    { Common.attempted; failed; e2e; layers = []; report = []; trace = None }
  else begin
    let setup_spans = Span.create ~enabled:true in
    let minic_bytes = Inputs.lower_sources setup_spans in
    let kernels = setup ~spans:setup_spans ~scale ~seed in
    let spans = Span.create ~enabled:true in
    let tmetrics = M.create () in
    let traced_rounds =
      Common.repeat_for ~seconds:(seconds /. 2.0) (fun _ ->
          round ~spans ~pool ~metrics:tmetrics kernels)
    in
    let t =
      { t_uops = 0; t_cycles = 0; t_mismatch = 0; t_report_bytes = 0; t_ops_out = 0;
        t_passes = Hashtbl.create 8 }
    in
    (* the search's own memo-cache counters, before re-execution clears them *)
    let cc = Sim.cache_counters () in
    let rspans = Span.create ~enabled:true in
    List.iter (reexecute ~spans:rspans ~tally:t) (List.hd (List.rev traced_rounds)).rd_outcomes;
    if t.t_mismatch > 0 then
      Printf.eprintf "tune: %d re-executed attempts disagree with the search\n%!" t.t_mismatch;
    let attempted, failed = gate (untraced @ traced_rounds) in
    let layers, report =
      per_layer ~setup_spans:(Span.spans setup_spans) ~minic_bytes ~round_spans:(Span.spans spans)
        ~reexec_spans:(Span.spans rspans) ~metrics:tmetrics ~cc ~tally:t ~jobs
        ~traced:traced_rounds ~untraced
    in
    {
      Common.attempted = attempted + 1;
      failed = failed + Bool.to_int (t.t_mismatch > 0);
      e2e;
      layers;
      report;
      trace =
        Some
          (Span.trace_json ~process:"perfbench tune"
             (Span.spans setup_spans @ Span.spans spans @ Span.spans rspans));
    }
  end
