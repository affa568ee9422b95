(* Reproduction of every table and figure in the paper's evaluation
   (Sec. VI-VII). Each function prints a plain-text rendering of the
   corresponding figure's data. [scale] shrinks the synthetic inputs
   uniformly so the full suite runs in minutes. *)

open Phloem_workloads
module Table = Phloem_util.Table
module Stats = Phloem_util.Stats

let fmt = Table.fmt_float

let default_scale () =
  match Sys.getenv_opt "PHLOEM_SCALE" with
  | Some s -> (try float_of_string s with Failure _ -> 1.0)
  | None -> 1.0

let section title =
  Printf.printf "\n==== %s ====\n%!" title

(* --- inputs --- *)

let graph_of name ~scale = Lazy.force (Phloem_graph.Inputs.find ~scale name).Phloem_graph.Inputs.graph

let test_graphs ~scale =
  List.map
    (fun i -> (i.Phloem_graph.Inputs.name, Lazy.force i.Phloem_graph.Inputs.graph))
    (Phloem_graph.Inputs.test ~scale ())

let training_graphs ~scale =
  List.map
    (fun i -> (i.Phloem_graph.Inputs.name, Lazy.force i.Phloem_graph.Inputs.graph))
    (Phloem_graph.Inputs.training ~scale ())

(* SpMM is O(rows x cols) output-stationary: scale its matrices down hard. *)
let spmm_scale scale = 0.12 *. scale

let spmm_pairs ~scale kind =
  let inputs =
    match kind with
    | `Test -> Phloem_sparse.Inputs.spmm_test ~scale:(spmm_scale scale) ()
    | `Training -> Phloem_sparse.Inputs.spmm_training ~scale:(spmm_scale scale) ()
  in
  List.map
    (fun i ->
      let a = Lazy.force i.Phloem_sparse.Inputs.matrix in
      (* B^T: reuse the same generator family with a shifted seed via transpose *)
      (i.Phloem_sparse.Inputs.name, a, Phloem_sparse.Csr_matrix.transpose a))
    inputs

let taco_matrices ~scale =
  List.map
    (fun i -> (i.Phloem_sparse.Inputs.name, Lazy.force i.Phloem_sparse.Inputs.matrix))
    (Phloem_sparse.Inputs.taco_test ~scale:(0.35 *. scale) ())

(* --- tables --- *)

let table3 () =
  section "Table III: configuration of the evaluated system";
  List.iter print_endline (Pipette.Config.table3_lines Pipette.Config.four_cores)

let table4 ?(scale = default_scale ()) () =
  section "Table IV: input graphs (synthetic substitutes)";
  print_string (Phloem_graph.Inputs.table4 ~scale ())

let table5 ?(scale = default_scale ()) () =
  section "Table V: input matrices (synthetic substitutes)";
  print_string (Phloem_sparse.Inputs.table5 ~scale:(0.35 *. scale) ())

(* --- Fig. 6: BFS speedup as passes are added --- *)

let fig6 ?(scale = default_scale ()) () =
  section "Fig. 6: BFS speedup over serial with each added pass";
  let g = graph_of "USA-road-d-USA" ~scale in
  let b = Bfs.bind g in
  let serial_p, inputs = b.Workload.b_serial in
  let sr = Pipette.Sim.run ~inputs serial_p in
  let sc = Pipette.Sim.cycles sr in
  let open Phloem.Decouple in
  let variants =
    [
      ("Serial", None);
      ("Q (queues only)", Some queues_only);
      ("Q+R (+recompute)", Some { queues_only with f_recompute = true });
      ("Q+R+CV (+control values)", Some { queues_only with f_recompute = true; f_cv = true });
      ( "Q+R+CV+DCE (+inter-stage DCE)",
        Some { queues_only with f_recompute = true; f_cv = true; f_dce = true } );
      ( "Q+R+CV+DCE+CH (+handlers)",
        Some
          {
            queues_only with
            f_recompute = true;
            f_cv = true;
            f_dce = true;
            f_handlers = true;
          } );
      ("All (+reference accelerators)", Some all_passes);
      ("Manually pipelined", None);
    ]
  in
  let t = Table.create [ "Variant"; "Cycles"; "Speedup" ] in
  List.iter
    (fun (name, flags) ->
      (* A variant that fails to compile *or* to simulate (e.g. a
         Pipeline_failure under an aggressive ladder rung) renders as "-"
         instead of aborting the figure. *)
      let cycles =
        match (name, flags) with
        | "Serial", _ -> Some sc
        | "Manually pipelined", _ -> (
          match
            Option.map
              (fun mp -> Pipette.Sim.cycles (Pipette.Sim.run ~inputs:(snd mp) (fst mp)))
              b.Workload.b_manual
          with
          | c -> c
          | exception e when Runner.expected_failure e -> None)
        | _, Some flags -> (
          match
            let p = Phloem.Compile.static_flow ~flags ~stages:4 serial_p in
            Pipette.Sim.cycles (Pipette.Sim.run ~inputs p)
          with
          | c -> Some c
          | exception e when Runner.expected_failure e -> None)
        | _, None -> None
      in
      match cycles with
      | Some c ->
        Table.add_row t [ name; string_of_int c; fmt (float_of_int sc /. float_of_int c) ^ "x" ]
      | None -> Table.add_row t [ name; "-"; "-" ])
    variants;
  print_string (Table.render t)

(* --- Fig. 9/10/11: graph + SpMM benchmarks, all variants --- *)

(* A whole (benchmark x input) cell that failed before producing any
   measurement — typically the serial baseline itself (per-variant failures
   live inside [Runner.all_runs.failures] instead). *)
type cell_error = { ce_message : string; ce_backtrace : string }

type bench_runs = {
  br_bench : string;
  br_input : string;
  br_runs : (Runner.all_runs, cell_error) result;
}

(* The cells of a sweep that did produce measurements. *)
let ok_runs (runs : bench_runs list) : Runner.all_runs list =
  List.filter_map
    (fun r -> match r.br_runs with Ok a -> Some a | Error _ -> None)
    runs

let gmean_opt = function [] -> None | xs -> Some (Stats.gmean xs)
let fmt_opt = function Some v -> fmt v | None -> "-"

let graph_bound name g =
  match name with
  | "BFS" -> Bfs.bind g
  | "CC" -> Cc.bind g
  | "PRD" -> Prd.bind g
  | "Radii" -> Radii.bind g
  | _ -> invalid_arg name

let pgo_recipe ?pool ~scale bench =
  let bounds =
    match bench with
    | "SpMM" ->
      List.map (fun (_, a, bt) -> Spmm.bind a bt) (spmm_pairs ~scale `Training)
    | _ -> List.map (fun (_, g) -> graph_bound bench g) (training_graphs ~scale)
  in
  fst (Runner.pgo_cuts ?pool bounds)

(* Progress lines route through the structured diagnostics sink at Info so a
   caller can silence or capture them; [run_all_experiments] raises the
   threshold so interactive runs still show them. *)
let progress fmt = Phloem_util.Log.info ~component:"harness" fmt

(* The per-input jobs of one benchmark are independent: fan them out over
   the pool. Inputs are forced in the submitting domain (Lazy is not
   domain-safe), [Pool.map_list] preserves submission order, and every job
   is a deterministic function of its bound — so the pooled collection is
   byte-identical to the serial one. [only_inputs] restricts the sweep to
   the named inputs (smoke tests, CI); [pgo] can be disabled to skip the
   profile-guided search. *)
let run_benchmark ?pool ?only_inputs ?(pgo = true) ~scale bench :
    bench_runs list =
  let keep name =
    match only_inputs with None -> true | Some names -> List.mem name names
  in
  let pgo =
    if pgo then begin
      progress "[fig9-11] %s: profile-guided search..." bench;
      Some (pgo_recipe ?pool ~scale bench)
    end
    else None
  in
  let inputs : (string * (unit -> Workload.bound)) list =
    match bench with
    | "SpMM" ->
      List.filter_map
        (fun (name, a, bt) ->
          if keep name then Some (name, fun () -> Spmm.bind a bt) else None)
        (spmm_pairs ~scale `Test)
    | _ ->
      List.filter_map
        (fun (name, g) ->
          if keep name then Some (name, fun () -> graph_bound bench g) else None)
        (test_graphs ~scale)
  in
  let pmap f l =
    match pool with
    | Some p -> Phloem_util.Pool.map_list p f l
    | None -> List.map f l
  in
  pmap
    (fun (name, bind) ->
      progress "[fig9-11] %s on %s" bench name;
      (* Degrade gracefully: a cell that fails outright (deadlocked serial
         baseline, compile rejection before any variant ran) becomes an
         [Error] record, and the sweep's remaining cells still run. *)
      let runs =
        match
          let b = bind () in
          Runner.run_all ?pgo_cuts:pgo ?pool b
        with
        | a -> Ok a
        | exception e when Runner.expected_failure e ->
          let bt = Printexc.get_raw_backtrace () in
          Phloem_util.Log.warn ~component:"harness" "[fig9-11] %s on %s failed: %s"
            bench name (Printexc.to_string e);
          Error
            {
              ce_message = Printexc.to_string e;
              ce_backtrace = Printexc.raw_backtrace_to_string bt;
            }
      in
      { br_bench = bench; br_input = name; br_runs = runs })
    inputs

let benches = [ "BFS"; "CC"; "PRD"; "Radii"; "SpMM" ]

let collect ?pool ?(benches = benches) ?only_inputs ?pgo
    ?(scale = default_scale ()) () =
  List.map
    (fun b -> (b, run_benchmark ?pool ?only_inputs ?pgo ~scale b))
    benches

let gmean_of sel (runs : bench_runs list) =
  gmean_opt (List.filter_map sel (ok_runs runs))

(* Machine-readable form of a full collection (the Fig. 9-11 data): one
   entry per benchmark, one run record per input and variant. Failed cells
   become an "error" object in place of "runs", and every failure — whole
   cells and single variants alike — is aggregated into the top-level
   "errors" array (variant "*" marks a whole cell). *)
let json_of_collection (all : (string * bench_runs list) list) :
    Phloem_util.Json.t =
  let open Phloem_util.Json in
  let errors =
    List.concat_map
      (fun (bench, runs) ->
        List.concat_map
          (fun r ->
            let tag rest =
              Obj (("benchmark", Str bench) :: ("input", Str r.br_input) :: rest)
            in
            match r.br_runs with
            | Error ce ->
              [
                tag
                  [
                    ("variant", Str "*");
                    ("kind", Str "exception");
                    ("message", Str ce.ce_message);
                    ("backtrace", Str ce.ce_backtrace);
                  ];
              ]
            | Ok a ->
              List.map
                (fun (f : Runner.failure) ->
                  tag
                    [
                      ("variant", Str f.Runner.f_variant);
                      ("kind", Str f.Runner.f_kind);
                      ("message", Str f.Runner.f_message);
                    ])
                a.Runner.failures)
          runs)
      all
  in
  Obj
    [
      ( "benchmarks",
        List
          (List.map
             (fun (bench, runs) ->
               Obj
                 [
                   ("benchmark", Str bench);
                   ( "inputs",
                     List
                       (List.map
                          (fun r ->
                            Obj
                              (("input", Str r.br_input)
                              ::
                              (match r.br_runs with
                              | Ok a -> [ ("runs", Runner.json_of_all_runs a) ]
                              | Error ce ->
                                [
                                  ( "error",
                                    Obj
                                      [
                                        ("message", Str ce.ce_message);
                                        ("backtrace", Str ce.ce_backtrace);
                                      ] );
                                ])))
                          runs) );
                 ])
             all) );
      ("errors", List errors);
    ]

(* Run the full fig9-11 collection and write it as JSON; the substrate for
   scripted/CI consumption of the evaluation. *)
let write_json_report ?pool ?benches ?only_inputs ?pgo
    ?(scale = default_scale ()) ~file () =
  let all = collect ?pool ?benches ?only_inputs ?pgo ~scale () in
  Phloem_util.Json.to_file file (json_of_collection all);
  progress "[json] evaluation report written to %s" file;
  all

let fig9 ?pool ?(all = None) ?(scale = default_scale ()) () =
  section "Fig. 9: per-benchmark speedup over serial (gmean across inputs)";
  let all = match all with Some a -> a | None -> collect ?pool ~scale () in
  let t =
    Table.create
      [ "Benchmark"; "Data-parallel"; "Phloem (PGO)"; "Phloem static (x)"; "Manual" ]
  in
  let phloem_best (a : Runner.all_runs) =
    match (a.Runner.phloem_pgo, a.Runner.phloem_static) with
    | Some m, _ | None, Some m -> Some m.Runner.m_speedup
    | None, None -> None
  in
  List.iter
    (fun (bench, runs) ->
      let speed sel =
        gmean_of (fun a -> Option.map (fun m -> m.Runner.m_speedup) (sel a)) runs
      in
      let dp = speed (fun a -> a.Runner.data_parallel) in
      let ps = speed (fun a -> a.Runner.phloem_static) in
      let pp = gmean_of phloem_best runs in
      let man = speed (fun a -> a.Runner.manual) in
      Table.add_row t [ bench; fmt_opt dp; fmt_opt pp; fmt_opt ps; fmt_opt man ])
    all;
  let overall =
    gmean_opt
      (List.concat_map
         (fun (_, runs) -> List.filter_map phloem_best (ok_runs runs))
         all)
  in
  print_string (Table.render t);
  Printf.printf "Overall Phloem gmean speedup over serial: %sx\n" (fmt_opt overall)

let breakdown_row label (m : Runner.measurement) =
  [
    label;
    fmt m.Runner.m_issue;
    fmt m.Runner.m_backend;
    fmt m.Runner.m_queue;
    fmt m.Runner.m_other;
    fmt (m.Runner.m_issue +. m.Runner.m_backend +. m.Runner.m_queue +. m.Runner.m_other);
  ]

let fig10 ?pool ?(all = None) ?(scale = default_scale ()) () =
  section
    "Fig. 10: cycle breakdown, thread-cycles normalized to the serial run\n\
     (S serial, D data-parallel, P Phloem, M manual)";
  let all = match all with Some a -> a | None -> collect ?pool ~scale () in
  let t = Table.create [ "Bench/variant"; "Issue"; "Backend"; "Queue"; "Other"; "Total" ] in
  List.iter
    (fun (bench, runs) ->
      (* average the normalized breakdowns across inputs *)
      let avg sel =
        let ms = List.filter_map sel (ok_runs runs) in
        match ms with
        | [] -> None
        | _ ->
          let n = float_of_int (List.length ms) in
          let f g = List.fold_left (fun a m -> a +. g m) 0.0 ms /. n in
          Some
            {
              (List.hd ms) with
              Runner.m_issue = f (fun m -> m.Runner.m_issue);
              m_backend = f (fun m -> m.Runner.m_backend);
              m_queue = f (fun m -> m.Runner.m_queue);
              m_other = f (fun m -> m.Runner.m_other);
            }
      in
      let add label sel =
        match avg sel with
        | Some m -> Table.add_row t (breakdown_row (bench ^ "/" ^ label) m)
        | None -> ()
      in
      add "S" (fun r -> Some r.Runner.serial);
      add "D" (fun r -> r.Runner.data_parallel);
      add "P" (fun r ->
          match r.Runner.phloem_pgo with
          | Some _ as m -> m
          | None -> r.Runner.phloem_static);
      add "M" (fun r -> r.Runner.manual))
    all;
  print_string (Table.render t)

let fig11 ?pool ?(all = None) ?(scale = default_scale ()) () =
  section "Fig. 11: energy breakdown normalized to serial (core/memory/queues+RA/static)";
  let all = match all with Some a -> a | None -> collect ?pool ~scale () in
  let t =
    Table.create [ "Bench/variant"; "Core dyn"; "Memory"; "Queues+RA"; "Static"; "Total" ]
  in
  List.iter
    (fun (bench, runs) ->
      let oks = ok_runs runs in
      let serial_tot =
        match oks with
        | [] -> 0.0
        | _ ->
          Stats.mean
            (List.map
               (fun (a : Runner.all_runs) ->
                 Pipette.Energy.total a.Runner.serial.Runner.m_energy)
               oks)
      in
      let add label sel =
        let es = List.filter_map sel oks in
        match es with
        | [] -> ()
        | _ when serial_tot = 0.0 -> ()
        | _ ->
          let n = float_of_int (List.length es) in
          let f g = List.fold_left (fun a (m : Runner.measurement) -> a +. g m.Runner.m_energy) 0.0 es /. n /. serial_tot in
          Table.add_row t
            [
              bench ^ "/" ^ label;
              fmt (f (fun e -> e.Pipette.Energy.e_core_dynamic));
              fmt (f (fun e -> e.Pipette.Energy.e_memory));
              fmt (f (fun e -> e.Pipette.Energy.e_queues_ras));
              fmt (f (fun e -> e.Pipette.Energy.e_static));
              fmt (f Pipette.Energy.total);
            ]
      in
      add "S" (fun r -> Some r.Runner.serial);
      add "D" (fun r -> r.Runner.data_parallel);
      add "P" (fun r ->
          match r.Runner.phloem_pgo with
          | Some _ as m -> m
          | None -> r.Runner.phloem_static);
      add "M" (fun r -> r.Runner.manual))
    all;
  print_string (Table.render t)

(* --- Fig. 12: Taco benchmarks --- *)

let fig12 ?pool ?(scale = default_scale ()) () =
  section "Fig. 12: Taco benchmarks, speedup over Taco serial (static Phloem flow)";
  let t = Table.create [ "Benchmark"; "Data-parallel"; "Phloem (static)" ] in
  let pmap f l =
    match pool with
    | Some p -> Phloem_util.Pool.map_list p f l
    | None -> List.map f l
  in
  List.iter
    (fun kind ->
      let runs =
        pmap
          (fun (name, m) ->
            match Runner.run_all ?pool (Taco_kernels.bind kind m) with
            | a -> Some a
            | exception e when Runner.expected_failure e ->
              Phloem_util.Log.warn ~component:"harness" "[fig12] %s on %s failed: %s"
                (Taco_kernels.name_of kind) name (Printexc.to_string e);
              None)
          (taco_matrices ~scale)
        |> List.filter_map Fun.id
      in
      let speed sel =
        gmean_opt
          (List.filter_map
             (fun (a : Runner.all_runs) ->
               Option.map (fun m -> m.Runner.m_speedup) (sel a))
             runs)
      in
      let dp = speed (fun a -> a.Runner.data_parallel) in
      let ps = speed (fun a -> a.Runner.phloem_static) in
      Table.add_row t [ Taco_kernels.name_of kind; fmt_opt dp; fmt_opt ps ])
    [ Taco_kernels.Mtmul; Taco_kernels.Residual; Taco_kernels.Spmv; Taco_kernels.Sddmm ];
  print_string (Table.render t)

(* --- Fig. 13: speedup distribution vs pipeline length --- *)

let fig13 ?pool ?(scale = default_scale ()) () =
  section
    "Fig. 13: gmean speedup on training inputs of profiled pipelines by stage\n\
     count (threads + RAs); min / best per length";
  let t = Table.create [ "Benchmark"; "Stages"; "Min"; "Best"; "Candidates" ] in
  let explore name (bounds : Workload.bound list) =
    match
      Runner.pgo_cuts ~top_k:6 ~max_cuts:3 ?pool bounds
    with
    | _, outcome ->
      let by_len = Hashtbl.create 8 in
      List.iter
        (fun (a : Phloem.Autotune.attempt) ->
          match a.t_status with
          | Run_ok ok when a.t_config.at_cuts <> [] ->
            let cur = try Hashtbl.find by_len ok.ok_stages with Not_found -> [] in
            Hashtbl.replace by_len ok.ok_stages (ok.ok_gmean :: cur)
          | _ -> ())
        outcome.Phloem.Autotune.o_trace;
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_len []
      |> List.sort compare
      |> List.iter (fun (len, gs) ->
             let lo, hi = Stats.min_max gs in
             Table.add_row t
               [
                 name;
                 string_of_int len;
                 fmt lo;
                 fmt hi;
                 string_of_int (List.length gs);
               ])
    | exception e when Runner.expected_failure e ->
      Table.add_row t [ name; "-"; "-"; "-"; Printexc.to_string e ]
  in
  explore "BFS" (List.map (fun (_, g) -> Bfs.bind g) (training_graphs ~scale));
  explore "SpMM"
    (List.map (fun (_, a, bt) -> Spmm.bind a bt) (spmm_pairs ~scale `Training));
  explore "SpMV"
    (List.map
       (fun (_, m) -> Taco_kernels.bind Taco_kernels.Spmv m)
       [ List.hd (taco_matrices ~scale) ]);
  print_string (Table.render t)

(* --- Fig. 14: replicated pipelines on 4 cores x 4 threads --- *)

let fig14 ?(scale = default_scale ()) () =
  section "Fig. 14: replicated pipelines, 4 cores (vs 1-core serial)";
  let cfg = Pipette.Config.four_cores in
  let t =
    Table.create [ "Benchmark"; "Data-parallel x16"; "Phloem replicated"; "Manual (1 core)" ]
  in
  let graphs = [ graph_of "USA-road-d-USA" ~scale; graph_of "as-Skitter" ~scale ] in
  let row name ~serial_of ~dp_of ~rep_of ~man_of =
    (* A wedged variant (Pipeline_failure etc.) renders "-" for its cell. *)
    let speedups f =
      match
        Stats.gmean
          (List.map
             (fun g ->
               let sc = serial_of g in
               let c = f g in
               float_of_int sc /. float_of_int c)
             graphs)
      with
      | v -> fmt v
      | exception e when Runner.expected_failure e -> "-"
    in
    Table.add_row t [ name; speedups dp_of; speedups rep_of; speedups man_of ]
  in
  let serial_cycles bind_fn g =
    let b = bind_fn g in
    let p, inputs = b.Workload.b_serial in
    Pipette.Sim.cycles (Pipette.Sim.run ~inputs p)
  in
  let dp_cycles bind_fn g =
    let b = bind_fn g in
    let p, inputs = b.Workload.b_data_parallel ~threads:16 in
    Pipette.Sim.cycles (Pipette.Sim.run ~cfg ~inputs p)
  in
  let man_cycles bind_fn g =
    let b = bind_fn g in
    match b.Workload.b_manual with
    | Some (p, inputs) -> Pipette.Sim.cycles (Pipette.Sim.run ~inputs p)
    | None -> max_int
  in
  let rep_cycles mk g =
    let p, inputs, tc = mk g in
    Pipette.Sim.cycles (Pipette.Sim.run ~cfg ~thread_core:tc ~inputs p)
  in
  row "BFS"
    ~serial_of:(serial_cycles Bfs.bind)
    ~dp_of:(dp_cycles Bfs.bind)
    ~rep_of:(rep_cycles (fun g -> Replicated.bfs g ~replicas:4))
    ~man_of:(man_cycles Bfs.bind);
  row "CC"
    ~serial_of:(serial_cycles Cc.bind)
    ~dp_of:(dp_cycles Cc.bind)
    ~rep_of:(rep_cycles (fun g -> Replicated.cc g ~replicas:4))
    ~man_of:(man_cycles Cc.bind);
  row "PRD"
    ~serial_of:(serial_cycles Prd.bind)
    ~dp_of:(dp_cycles Prd.bind)
    ~rep_of:(rep_cycles (fun g -> Replicated.prd g ~replicas:4))
    ~man_of:(man_cycles Prd.bind);
  row "Radii"
    ~serial_of:(serial_cycles Radii.bind)
    ~dp_of:(dp_cycles Radii.bind)
    ~rep_of:
      (rep_cycles (fun g ->
           let p, i, tc, _ = Replicated.radii g ~replicas:4 in
           (p, i, tc)))
    ~man_of:(man_cycles Radii.bind);
  print_string (Table.render t)

let run_all_experiments ?pool ?(scale = default_scale ()) () =
  if Phloem_util.Log.severity (Phloem_util.Log.level ()) > Phloem_util.Log.severity Phloem_util.Log.Info
  then Phloem_util.Log.set_level Phloem_util.Log.Info;
  table3 ();
  table4 ~scale ();
  table5 ~scale ();
  fig6 ~scale ();
  let all = collect ?pool ~scale () in
  fig9 ~all:(Some all) ~scale ();
  fig10 ~all:(Some all) ~scale ();
  fig11 ~all:(Some all) ~scale ();
  fig12 ?pool ~scale ();
  fig13 ?pool ~scale ();
  fig14 ~scale ()
