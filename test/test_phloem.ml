(* Tests for the Phloem compiler: cost model ranking, normalization, the
   decoupler's pass gates, scan chaining, search, and replication. *)

open Phloem
module I = Phloem_ir.Types
module B = Phloem_ir.Builder

let bfs_src = Phloem_workloads.Bfs.serial_source

let bfs_serial () =
  let g = Phloem_graph.Gen.grid ~width:12 ~height:10 ~seed:5 in
  (Phloem_workloads.Bfs.serial g ~root:0, g)

(* --- normalization --- *)

let test_normalize_flattens () =
  let open B in
  let body =
    [ "x" <-- ((load "a" (v "i" +! int 1) *! int 2) +! load "b" (v "j")) ]
  in
  let normalized = Normalize.body body in
  (* every statement's rhs has at most one operation over atoms *)
  let rec depth (e : I.expr) =
    match e with
    | I.Const _ | I.Var _ -> 0
    | I.Binop (_, a, b) -> 1 + max (depth a) (depth b)
    | I.Unop (_, a) | I.Is_control a | I.Ctrl_payload a -> 1 + depth a
    | I.Load (_, i) -> 1 + depth i
    | I.Deq _ -> 1
    | I.Call (_, args) -> 1 + List.fold_left (fun m a -> max m (depth a)) 0 args
  in
  List.iter
    (function
      | I.Assign (_, e) ->
        if depth e > 1 then Alcotest.failf "not flattened: %s" (Phloem_ir.Printer.expr_to_string e)
      | _ -> ())
    normalized;
  Alcotest.(check bool) "multiple statements emitted" true (List.length normalized > 1)

let test_normalize_while_condition () =
  let open B in
  let body = [ while_ (load "a" (int 0) >! int 0) [ Seq_marker "body" ] ] in
  match Normalize.body body with
  | [ I.While (_, I.Const (I.Vint 1), _) ] -> ()
  | _ -> Alcotest.fail "loaded while-condition should become while(1) + break"

(* --- cost model --- *)

let test_costmodel_bfs_ranking () =
  let (serial, _), _g = (bfs_serial (), ()) in
  let serial_p = fst serial in
  let cuts = Compile.candidates serial_p in
  Alcotest.(check bool) "several candidates" true (List.length cuts >= 4);
  (* top cut is the innermost distance load, marked prefetch-only because
     distances are also written in the same iteration (paper Fig. 4) *)
  let top = List.hd cuts in
  Alcotest.(check bool) "top cut is prefetch-only" true top.Costmodel.cut_prefetch;
  (* scores decrease *)
  let rec mono = function
    | a :: (b :: _ as rest) -> a.Costmodel.cut_score >= b.Costmodel.cut_score && mono rest
    | _ -> true
  in
  Alcotest.(check bool) "ranked by score" true (mono cuts)

let test_costmodel_adjacent_group () =
  let (serial, _), () = (bfs_serial (), ()) in
  let cuts = Compile.candidates (fst serial) in
  (* nodes[v] and nodes[v+1] group into one cut *)
  Alcotest.(check bool) "some cut groups two loads" true
    (List.exists (fun c -> List.length c.Costmodel.cut_loads = 2) cuts)

(* --- full compilation: structure of the BFS pipeline --- *)

let test_bfs_pipeline_structure () =
  let (serial, inputs), g = bfs_serial () in
  let p = Compile.static_flow ~stages:4 serial in
  (* scan chaining elides the enumerate-neighbors stage: 3 threads + 2 RAs *)
  Alcotest.(check int) "threads" 3 (List.length p.I.p_stages);
  Alcotest.(check int) "reference accelerators" 2 (List.length p.I.p_ras);
  Alcotest.(check bool) "one scan RA" true
    (List.exists (fun r -> r.I.ra_mode = I.Ra_scan) p.I.p_ras);
  Alcotest.(check bool) "one indirect RA" true
    (List.exists (fun r -> r.I.ra_mode = I.Ra_indirect) p.I.p_ras);
  (* and it computes BFS *)
  let r = Pipette.Sim.run ~inputs p in
  let expected = Phloem_graph.Algos.bfs g ~root:0 in
  Alcotest.(check bool) "correct distances" true
    (List.assoc "dist" r.Pipette.Sim.sr_functional.Phloem_ir.Interp.r_arrays
    = Array.map (fun x -> I.Vint x) expected)

let test_pass_gates_monotone () =
  (* each pass level must stay functionally correct *)
  let (serial, inputs), g = bfs_serial () in
  let expected = Array.map (fun x -> I.Vint x) (Phloem_graph.Algos.bfs g ~root:0) in
  let open Decouple in
  List.iter
    (fun flags ->
      let p = Compile.static_flow ~flags ~stages:4 serial in
      let r = Pipette.Sim.run ~inputs p in
      Alcotest.(check bool) "correct" true
        (List.assoc "dist" r.Pipette.Sim.sr_functional.Phloem_ir.Interp.r_arrays = expected))
    [
      queues_only;
      { queues_only with f_recompute = true };
      { queues_only with f_recompute = true; f_cv = true };
      { queues_only with f_recompute = true; f_cv = true; f_dce = true };
      all_passes;
    ]

let test_prefetch_cut_for_rmw_array () =
  (* the distance array is read and written in the same iteration: Phloem
     must never split that load into a different stage than the store *)
  let (serial, _), _ = bfs_serial () in
  let p = Compile.static_flow ~stages:4 serial in
  let rec stores_dist (stmts : I.stmt list) =
    List.exists
      (fun s ->
        match s with
        | I.Store ("dist", _, _) -> true
        | I.If (_, _, t, f) -> stores_dist t || stores_dist f
        | I.While (_, _, b) | I.For (_, _, _, _, b) -> stores_dist b
        | _ -> false)
      stmts
  in
  let rec loads_dist (stmts : I.stmt list) =
    let rec in_expr (e : I.expr) =
      match e with
      | I.Load ("dist", _) -> true
      | I.Binop (_, a, b) -> in_expr a || in_expr b
      | I.Unop (_, a) | I.Is_control a | I.Ctrl_payload a -> in_expr a
      | I.Load (_, i) -> in_expr i
      | _ -> false
    in
    List.exists
      (fun s ->
        match s with
        | I.Assign (_, e) -> in_expr e
        | I.If (_, c, t, f) -> in_expr c || loads_dist t || loads_dist f
        | I.While (_, c, b) -> in_expr c || loads_dist b
        | I.For (_, _, lo, hi, b) -> in_expr lo || in_expr hi || loads_dist b
        | _ -> false)
      stmts
  in
  List.iter
    (fun st ->
      if loads_dist st.I.s_body then
        Alcotest.(check bool)
          (st.I.s_name ^ " loads dist so it must own the stores")
          true (stores_dist st.I.s_body))
    p.I.p_stages

let test_spmm_rejects_merge_cuts () =
  let a = Phloem_sparse.Gen.random ~rows:16 ~cols:16 ~nnz_per_row:3 ~seed:1 in
  let bt = Phloem_sparse.Gen.random ~rows:16 ~cols:16 ~nnz_per_row:3 ~seed:2 in
  let b = Phloem_workloads.Spmm.bind a bt in
  let serial = fst b.Phloem_workloads.Workload.b_serial in
  let cuts = Compile.candidates serial in
  (* the innermost merge-loop cuts are individually illegal *)
  let top = List.hd cuts in
  match Compile.with_cuts serial [ top ] with
  | _ -> Alcotest.fail "expected the merge-loop cut to be rejected"
  | exception Decouple.Reject _ -> ()

(* --- search --- *)

(* The profiled cut-set candidates of a PGO outcome with their gmeans:
   its non-serial successful attempts, in evaluation order. *)
let pgo_candidates (o : Autotune.outcome) =
  List.filter_map
    (fun (a : Autotune.attempt) ->
      match a.t_status with
      | Autotune.Run_ok ok when a.t_config.at_cuts <> [] -> Some (a, ok.ok_gmean)
      | _ -> None)
    o.o_trace

(* Two BFS training inputs of different sizes (a 10x8 grid and an R-MAT
   graph), so every candidate must be compiled per input. *)
let bfs_pair () =
  let g1 = Phloem_graph.Gen.grid ~width:10 ~height:8 ~seed:7 in
  let g2 = Phloem_graph.Gen.rmat ~scale:7 ~edge_factor:2 ~seed:8 in
  [ Phloem_workloads.Bfs.bind g1; Phloem_workloads.Bfs.bind g2 ]

let test_search_finds_candidates () =
  let bounds = bfs_pair () in
  let recipe, outcome = Phloem_harness.Runner.pgo_cuts ~top_k:4 ~max_cuts:3 bounds in
  (* the exact outcome, pinned: every one of the 14 cut sets is legal, and
     the best is cuts 1, 3 and 4 *)
  Alcotest.(check int) "legal cut-set candidates" 14
    (List.length (pgo_candidates outcome));
  Alcotest.(check (list int)) "recipe" [ 1; 3; 4 ]
    (List.map (fun (c : Costmodel.cut) -> List.hd c.cut_loads) recipe);
  (match outcome.o_cut_only with
  | Some (_, cycles, gmean) ->
    Alcotest.(check (list int)) "recipe cycles" [ 3607; 2720 ] cycles;
    Alcotest.(check (float 5e-4)) "recipe gmean" 2.096 gmean
  | None -> Alcotest.fail "no cut set survived");
  (* the chosen recipe compiles and validates on a fresh input *)
  let g3 = Phloem_graph.Gen.grid ~width:14 ~height:6 ~seed:9 in
  let b3 = Phloem_workloads.Bfs.bind g3 in
  let serial, inputs = b3.Phloem_workloads.Workload.b_serial in
  let p = Compile.with_cuts serial recipe in
  let r = Pipette.Sim.run ~inputs p in
  Alcotest.(check bool) "recipe transfers to new input" true
    (Phloem_workloads.Workload.check b3 r.Pipette.Sim.sr_functional)

(* Autotune's seed wave on inputs of different sizes: each input compiles
   its own candidate, so all 15 seeds (serial + 14 cut sets) run. *)
let test_seed_wave_compiles_per_input () =
  let bounds = bfs_pair () in
  let o =
    Autotune.tune ~top_k:4 ~max_cuts:3 ~budget:15
      ~check_arrays:(List.hd bounds).Phloem_workloads.Workload.b_check_arrays
      ~training:(List.map (fun b -> b.Phloem_workloads.Workload.b_serial) bounds)
      ()
  in
  Alcotest.(check int) "one wave" 1 o.o_waves;
  Alcotest.(check int) "15 seed attempts" 15 (List.length o.o_trace);
  List.iter
    (fun (a : Autotune.attempt) ->
      match a.t_status with
      | Autotune.Run_ok _ -> ()
      | Autotune.Run_rejected m | Autotune.Run_failed m ->
        Alcotest.failf "seed #%d (%s) dropped: %s" a.t_id
          (Autotune.config_to_string a.t_config)
          m)
    o.o_trace

let test_search_best_is_max () =
  let g = Phloem_graph.Gen.grid ~width:10 ~height:8 ~seed:7 in
  let bounds = [ Phloem_workloads.Bfs.bind g ] in
  let recipe, o = Phloem_harness.Runner.pgo_cuts ~top_k:4 ~max_cuts:2 bounds in
  let candidates = pgo_candidates o in
  let best_g = List.fold_left (fun acc (_, g) -> max acc g) 0.0 candidates in
  let _, chosen =
    List.find (fun ((a : Autotune.attempt), _) -> a.t_config.at_cuts = recipe) candidates
  in
  Alcotest.(check (float 1e-9)) "best picked" best_g chosen

(* --- replication --- *)

let test_replicate_independent () =
  (* replicate a 2-stage summing pipeline; each replica sums its own array *)
  let open B in
  let base =
    pipeline "sum2"
      ~arrays:[ int_array "a" 8; int_array "out" 1 ]
      ~params:[ ("n", I.Vint 8) ]
      ~queues:[ queue 0 ]
      [
        stage "prod" [ for_ "i" (int 0) (v "n") [ enq 0 (load "a" (v "i")) ] ];
        stage "cons"
          [
            "acc" <-- int 0;
            for_ "i" (int 0) (v "n") [ "acc" <-- (v "acc" +! deq 0) ];
            store "out" (int 0) (v "acc");
          ];
      ]
  in
  let spec =
    {
      Replicate.r_replicas = 3;
      r_private_arrays = [ "a"; "out" ];
      r_private_params = [];
      r_distribute = None;
    }
  in
  let p = Replicate.apply base spec in
  Alcotest.(check int) "stages" 6 (List.length p.I.p_stages);
  let inputs =
    List.concat
      (List.init 3 (fun k ->
           [
             ( Replicate.private_name "a" k,
               Array.init 8 (fun i -> I.Vint ((k * 100) + i)) );
           ]))
  in
  let r = Pipette.Sim.run ~cfg:Pipette.Config.four_cores ~inputs p in
  List.iteri
    (fun k expected ->
      match
        List.assoc (Replicate.private_name "out" k)
          r.Pipette.Sim.sr_functional.Phloem_ir.Interp.r_arrays
      with
      | [| I.Vint got |] -> Alcotest.(check int) "replica sum" expected got
      | _ -> Alcotest.fail "bad out")
    [ 28; 828; 1628 ]

let test_replicate_distribute () =
  (* distribution routes values to the replica selected by parity *)
  let open B in
  let base =
    pipeline "dist2"
      ~arrays:[ int_array "a" 10; int_array "out" 1 ]
      ~params:[ ("n", I.Vint 10) ]
      ~queues:[ queue 0 ]
      [
        stage "prod"
          [
            for_ "i" (int 0) (v "n") [ enq 0 (load "a" (v "i")) ];
            enq_ctrl 0 1;
          ];
        stage "cons"
          ~handlers:[ handler ~queue:0 ~cv:"c" [ exit_loops 1 ] ]
          [
            "acc" <-- int 0;
            loop_forever [ "acc" <-- (v "acc" +! deq 0) ];
            store "out" (int 0) (v "acc");
          ];
      ]
  in
  let spec =
    {
      Replicate.r_replicas = 2;
      r_private_arrays = [ "out" ];
      r_private_params = [];
      r_distribute = Some (0, fun e -> I.Binop (I.Mod, e, I.Const (I.Vint 2)));
    }
  in
  let p = Replicate.apply base spec in
  let a = Array.init 10 (fun i -> I.Vint i) in
  let r = Pipette.Sim.run ~cfg:Pipette.Config.four_cores ~inputs:[ ("a", a) ] p in
  let out k =
    match
      List.assoc (Replicate.private_name "out" k)
        r.Pipette.Sim.sr_functional.Phloem_ir.Interp.r_arrays
    with
    | [| I.Vint got |] -> got
    | _ -> -1
  in
  (* both producers enumerate the same array, so each consumer sees every
     value of its parity class twice *)
  Alcotest.(check int) "evens" (2 * (0 + 2 + 4 + 6 + 8)) (out 0);
  Alcotest.(check int) "odds" (2 * (1 + 3 + 5 + 7 + 9)) (out 1)

(* property: static flow stays correct on random grid graphs *)
let prop_static_flow_correct =
  QCheck.Test.make ~count:12 ~name:"phloem BFS correct on random grids"
    QCheck.(pair (int_range 4 14) (int_range 4 12))
    (fun (w, h) ->
      let g = Phloem_graph.Gen.grid ~width:w ~height:h ~seed:((w * 31) + h) in
      let b = Phloem_workloads.Bfs.bind g in
      let serial, inputs = b.Phloem_workloads.Workload.b_serial in
      match Compile.static_flow ~stages:4 serial with
      | p ->
        let r = Pipette.Sim.run ~inputs p in
        Phloem_workloads.Workload.check b r.Pipette.Sim.sr_functional
      | exception Decouple.Reject _ -> true)

let suite =
  [
    Alcotest.test_case "normalize flattens" `Quick test_normalize_flattens;
    Alcotest.test_case "normalize while cond" `Quick test_normalize_while_condition;
    Alcotest.test_case "cost model BFS ranking" `Quick test_costmodel_bfs_ranking;
    Alcotest.test_case "cost model adjacency" `Quick test_costmodel_adjacent_group;
    Alcotest.test_case "BFS pipeline structure" `Quick test_bfs_pipeline_structure;
    Alcotest.test_case "pass gates all correct" `Quick test_pass_gates_monotone;
    Alcotest.test_case "prefetch cut keeps RMW together" `Quick test_prefetch_cut_for_rmw_array;
    Alcotest.test_case "SpMM merge cuts rejected" `Quick test_spmm_rejects_merge_cuts;
    Alcotest.test_case "search finds candidates" `Quick test_search_finds_candidates;
    Alcotest.test_case "seed wave compiles per input" `Quick
      test_seed_wave_compiles_per_input;
    Alcotest.test_case "search best is max" `Quick test_search_best_is_max;
    Alcotest.test_case "replicate independent" `Quick test_replicate_independent;
    Alcotest.test_case "replicate distribute" `Quick test_replicate_distribute;
    QCheck_alcotest.to_alcotest prop_static_flow_correct;
  ]

let () =
  ignore bfs_src;
  Alcotest.run "phloem" [ ("compiler", suite) ]
