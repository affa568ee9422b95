(* Pass-manager tests: per-pass verification over every workload, the
   manager's report, IR snapshot dumping, the standard pass order, and the
   structured diagnostics sink. *)

open Phloem_ir.Types
module Log = Phloem_util.Log

let verify_options = { Phloem.Pass.default_options with verify_each = true }

(* Every workload must compile with per-pass verification on: each
   intermediate pipeline passes Phloem_ir.Validate and the pass invariants. *)
let workload_serials () =
  let g = Phloem_graph.Gen.grid ~width:14 ~height:10 ~seed:3 in
  let a = Phloem_sparse.Gen.random ~rows:24 ~cols:24 ~nnz_per_row:3 ~seed:41 in
  let bt = Phloem_sparse.Gen.random ~rows:24 ~cols:24 ~nnz_per_row:3 ~seed:42 in
  let m = Phloem_sparse.Gen.banded ~n:30 ~bandwidth:6 ~nnz_per_row:4 ~seed:43 in
  let open Phloem_workloads in
  [
    ("bfs", fst (Bfs.bind g).Workload.b_serial);
    ("cc", fst (Cc.bind g).Workload.b_serial);
    ("prd", fst (Prd.bind g).Workload.b_serial);
    ("radii", fst (Radii.bind g).Workload.b_serial);
    ("spmm", fst (Spmm.bind a bt).Workload.b_serial);
    ("taco-spmv", fst (Taco_kernels.bind Taco_kernels.Spmv m).Workload.b_serial);
    ("taco-residual", fst (Taco_kernels.bind Taco_kernels.Residual m).Workload.b_serial);
    ("taco-mtmul", fst (Taco_kernels.bind Taco_kernels.Mtmul m).Workload.b_serial);
    ("taco-sddmm", fst (Taco_kernels.bind Taco_kernels.Sddmm m).Workload.b_serial);
  ]

let test_workloads_verify_each () =
  let compiled = ref 0 in
  List.iter
    (fun (name, serial) ->
      match
        Phloem.Compile.static_flow_report ~options:verify_options ~stages:4 serial
      with
      | p, report ->
        incr compiled;
        Alcotest.(check bool)
          (name ^ " produces a multi-op pipeline")
          true
          (Phloem.Pass.count_ops p > 0);
        Alcotest.(check bool)
          (name ^ " report covers every pass")
          true
          (List.length report.Phloem.Pass.rep_passes >= 3);
        List.iter
          (fun pr ->
            Alcotest.(check bool)
              (Printf.sprintf "%s/%s wall time sane" name pr.Phloem.Pass.pr_name)
              true
              (pr.Phloem.Pass.pr_wall_s >= 0.0 && pr.Phloem.Pass.pr_wall_s < 60.0);
            Alcotest.(check bool)
              (Printf.sprintf "%s/%s op counts positive" name pr.Phloem.Pass.pr_name)
              true
              (pr.Phloem.Pass.pr_ops_before > 0 && pr.Phloem.Pass.pr_ops_after > 0))
          report.Phloem.Pass.rep_passes
      | exception Phloem.Compile.Unsupported _ ->
        (* no legal decoupling for this kernel/input shape: acceptable, but
           it must be a clean reject, never a Verify_failed *)
        ()
      | exception Phloem.Pass.Verify_failed (pass, msg) ->
        Alcotest.failf "%s: pass %s produced invalid IR: %s" name pass msg)
    (workload_serials ());
  Alcotest.(check bool) "most workloads decouple" true (!compiled >= 6)

(* A deliberately broken pass (enqueue to an undeclared queue) must be caught
   by verify_each immediately after the offending pass, naming it. *)
let broken_pass : Phloem.Pass.pass =
  (module struct
    let name = "inject-bad-enq"
    let describe = "test-only: enqueue to an undeclared queue"

    let run (_ : Phloem.Pass.ctx) p =
      match p.p_stages with
      | st :: rest ->
        { p with p_stages = { st with s_body = Enq (999, Const (Vint 0)) :: st.s_body } :: rest }
      | [] -> p

    let invariants = []
  end)

let bfs_serial () =
  let g = Phloem_graph.Gen.grid ~width:14 ~height:10 ~seed:3 in
  fst (Phloem_workloads.Bfs.bind g).Phloem_workloads.Workload.b_serial

let test_broken_pass_caught () =
  let serial = bfs_serial () in
  let cuts =
    match Phloem.Compile.candidates serial with
    | c :: _ -> [ c ]
    | [] -> Alcotest.fail "BFS has no cut candidates"
  in
  let manager =
    Phloem.Pass.Manager.create
      ~options:{ Phloem.Pass.default_options with verify_each = true }
      [ Phloem.Passes.decouple; broken_pass; Phloem.Passes.cleanup ]
  in
  match
    Phloem.Pass.Manager.run manager
      { Phloem.Pass.flags = Phloem.Pass.all_passes; cuts }
      serial
  with
  | _ -> Alcotest.fail "broken pass not caught"
  | exception Phloem.Pass.Verify_failed (pass, _) ->
    Alcotest.(check string) "caught right after the broken pass" "inject-bad-enq" pass

(* Without verify_each the same broken pipeline must sail through the manager
   (validation only happens where a pass requests it). *)
let test_broken_pass_unchecked () =
  let serial = bfs_serial () in
  let cuts =
    match Phloem.Compile.candidates serial with c :: _ -> [ c ] | [] -> []
  in
  let manager =
    Phloem.Pass.Manager.create [ Phloem.Passes.decouple; broken_pass ]
  in
  let p, report =
    Phloem.Pass.Manager.run manager
      { Phloem.Pass.flags = Phloem.Pass.all_passes; cuts }
      serial
  in
  Alcotest.(check int) "both passes ran" 2 (List.length report.Phloem.Pass.rep_passes);
  Alcotest.(check bool) "pipeline still has stages" true (p.p_stages <> [])

let test_dump_ir () =
  let serial = bfs_serial () in
  let dir = Filename.temp_dir "phloem-ir-test" "" in
  let options = { Phloem.Pass.default_options with dump_ir = Some dir } in
  let _, report = Phloem.Compile.static_flow_report ~options ~stages:4 serial in
  let files = Array.to_list (Sys.readdir dir) in
  Alcotest.(check bool) "input snapshot written" true (List.mem "00-input.ir" files);
  Alcotest.(check int) "one snapshot per pass plus input"
    (1 + List.length report.Phloem.Pass.rep_passes)
    (List.length files);
  List.iteri
    (fun i pr ->
      let f = Printf.sprintf "%02d-%s.ir" (i + 1) pr.Phloem.Pass.pr_name in
      Alcotest.(check bool) (f ^ " written") true (List.mem f files))
    report.Phloem.Pass.rep_passes;
  List.iter (fun f -> Sys.remove (Filename.concat dir f)) files;
  Sys.rmdir dir

let test_standard_order () =
  let std = List.map Phloem.Pass.name_of (Phloem.Passes.standard ~flags:Phloem.Pass.all_passes) in
  Alcotest.(check (list string)) "standard order (all gates)"
    [ "decouple"; "scan-chain"; "cleanup"; "check-deadlock"; "check-limits"; "validate" ]
    std;
  let min = List.map Phloem.Pass.name_of (Phloem.Passes.standard ~flags:Phloem.Pass.queues_only) in
  Alcotest.(check (list string)) "standard order (queues only)"
    [ "decouple"; "cleanup"; "check-deadlock"; "check-limits"; "validate" ]
    min

let test_report_to_string () =
  let serial = bfs_serial () in
  let _, report = Phloem.Compile.static_flow_report ~stages:4 serial in
  let s = Phloem.Pass.report_to_string report in
  List.iter
    (fun pr ->
      let re = Str.regexp_string pr.Phloem.Pass.pr_name in
      Alcotest.(check bool)
        (pr.Phloem.Pass.pr_name ^ " appears in rendering")
        true
        (try
           ignore (Str.search_forward re s 0);
           true
         with Not_found -> false))
    report.Phloem.Pass.rep_passes

(* --- structured diagnostics --- *)

let test_log_levels () =
  let _, records =
    Log.with_capture ~level:Log.Info (fun () ->
        Log.debug ~component:"t" "dropped %d" 1;
        Log.info ~component:"t" "kept %d" 2;
        Log.warn ~component:"t" "kept %d" 3;
        Log.error ~component:"t" "kept %d" 4)
  in
  Alcotest.(check int) "debug filtered below Info" 3 (List.length records);
  Alcotest.(check (list string)) "messages in order"
    [ "kept 2"; "kept 3"; "kept 4" ]
    (List.map (fun r -> r.Log.r_message) records);
  Alcotest.(check bool) "components recorded" true
    (List.for_all (fun r -> r.Log.r_component = "t") records)

let test_log_capture_restores () =
  let before_level = Log.level () in
  let (), inner = Log.with_capture (fun () -> Log.debug "inner %s" "x") in
  Alcotest.(check int) "captured at Debug" 1 (List.length inner);
  Alcotest.(check bool) "level restored" true (Log.level () = before_level);
  (* after capture, the default sink is back: nothing is appended to the
     captured list anymore *)
  Log.set_level Log.Error;
  Log.warn "not captured";
  Log.set_level before_level;
  Alcotest.(check int) "sink restored" 1 (List.length inner)

let test_manager_logs_debug () =
  let serial = bfs_serial () in
  let _, records =
    Log.with_capture ~level:Log.Debug (fun () ->
        ignore (Phloem.Compile.static_flow ~stages:4 serial))
  in
  Alcotest.(check bool) "pass component logged" true
    (List.exists (fun r -> r.Log.r_component = "pass") records)

(* --- the cursor rule --- *)

let cut_head (c : Phloem.Costmodel.cut) = List.hd c.Phloem.Costmodel.cut_loads
let by_head = List.sort (fun a b -> compare (cut_head a) (cut_head b))

let names_var msg x = List.mem x (String.split_on_char ' ' msg)

let banded_spmm () =
  let m = Phloem_sparse.Gen.banded ~n:24 ~bandwidth:5 ~nnz_per_row:4 ~seed:9 in
  Phloem_workloads.Spmm.bind m (Phloem_sparse.Csr_matrix.transpose m)

(* Cutting SpMM's merge loop between its two cursor loads (cuts 0 and 2)
   and after acol[i1] (cut 4) leaves a stage that evaluates the merge
   condition on copies of i1/j1 only a later stage advances. *)
let test_stale_merge_cursor_rejected () =
  let serial = fst (banded_spmm ()).Phloem_workloads.Workload.b_serial in
  let cuts =
    by_head
      (List.filter
         (fun c -> List.mem (cut_head c) [ 0; 2; 4 ])
         (Phloem.Compile.candidates serial))
  in
  Alcotest.(check (list int)) "cuts 0, 2 and 4 are candidates" [ 0; 2; 4 ]
    (List.map cut_head cuts);
  match Phloem.Compile.with_cuts serial cuts with
  | _ -> Alcotest.fail "a stage reading a stale merge cursor was accepted"
  | exception Phloem.Decouple.Reject msg ->
    Alcotest.(check bool) ("names i1 or j1: " ^ msg) true
      (names_var msg "i1" || names_var msg "j1")

(* A cursor read only by an inline while condition: the middle stage runs
   the loop for its own load but never advances p. *)
let segment_src =
  "#pragma phloem\n\
   void seg(int n, int *restrict ptr, int *restrict w, int *restrict out) {\n\
   for (int r = 0; r < n; r++) {\n\
   int p = ptr[r];\n\
   int e = ptr[r + 1];\n\
   int s = 0;\n\
   while (p < e) {\n\
   int x = w[r];\n\
   s = s + x;\n\
   p = p + 1;\n\
   }\n\
   out[r] = s;\n\
   }\n\
   }"

let test_stale_cursor_in_condition_rejected () =
  let n = 6 in
  let lw = Phloem_minic.Lower.of_source segment_src in
  let serial, _ =
    Phloem_minic.Lower.to_serial_pipeline lw
      ~arrays:
        [
          ("ptr", Array.init (n + 1) (fun i -> Vint (2 * i)));
          ("w", Array.init n (fun i -> Vint i));
          ("out", Array.make n (Vint 0));
        ]
      ~scalars:[ ("n", Vint n) ]
  in
  let cuts = by_head (Phloem.Compile.candidates serial) in
  Alcotest.(check (list int)) "cuts at ptr[r] and w[r]" [ 0; 2 ] (List.map cut_head cuts);
  (* the cursor alone is legal: only its advancing stage runs the loop *)
  ignore (Phloem.Compile.with_cuts serial [ List.hd cuts ]);
  match Phloem.Compile.with_cuts serial cuts with
  | _ -> Alcotest.fail "a stage testing a stale cursor was accepted"
  | exception Phloem.Decouple.Reject msg ->
    Alcotest.(check bool) ("names p: " ^ msg) true (names_var msg "p")

(* Every seed-wave cut set the decoupler accepts, chained or not, runs to
   completion on the oracle, [Interp.run], within Autotune's op budget: no
   deadlock, no unbound read, no spin. Graph kernels run on two grids, the
   TACO kernels on the 30-row banded matrix, SpMM on the 24x24 banded pair.
   The arrays are not checked against serial yet: radii [6] and [7] still
   compute wrong ones, through a cross-stage write-after-read that no
   barrier orders. *)
let test_accepted_cut_sets_terminate () =
  let open Phloem_workloads in
  let graph_kernels (w, h, seed) =
    let g = Phloem_graph.Gen.grid ~width:w ~height:h ~seed in
    List.map
      (fun (name, bind) -> (Printf.sprintf "%s %dx%d" name w h, bind g))
      [ ("bfs", Bfs.bind); ("cc", Cc.bind); ("prd", Prd.bind); ("radii", Radii.bind) ]
  in
  let m = Phloem_sparse.Gen.banded ~n:30 ~bandwidth:6 ~nnz_per_row:4 ~seed:43 in
  let taco name k = (name, Taco_kernels.bind k m) in
  List.iter
    (fun (name, (b : Workload.bound)) ->
      let serial, inputs = b.Workload.b_serial in
      let serial_fr = Phloem_ir.Interp.run ~inputs serial in
      let budget = max 2_000_000 (8 * serial_fr.Phloem_ir.Interp.r_instrs) in
      List.iter
        (fun cuts ->
          List.iter
            (fun chain ->
              let flags = { Phloem.Pass.all_passes with f_chain = chain } in
              match Phloem.Compile.with_cuts ~flags serial cuts with
              | exception (Phloem.Decouple.Reject _ | Phloem_ir.Validate.Invalid _) -> ()
              | p -> (
                let fail why =
                  Alcotest.failf "%s cuts [%s] chain=%b: %s" name
                    (String.concat ";" (List.map (fun c -> string_of_int (cut_head c)) cuts))
                    chain why
                in
                match
                  Phloem_ir.Interp.with_max_ops budget (fun () ->
                      Phloem_ir.Interp.run ~inputs p)
                with
                | _ -> ()
                | exception Phloem_ir.Forensics.Pipeline_failure fr ->
                  fail (Phloem_ir.Forensics.kind_name fr.Phloem_ir.Forensics.fr_kind)
                | exception Phloem_ir.Interp.Runtime_error msg -> fail msg
                | exception Phloem_ir.Interp.Budget_exceeded -> fail "ran to the op budget"))
            [ true; false ])
        (Phloem.Autotune.enumerate_cut_sets serial))
    (graph_kernels (10, 8, 5)
    @ graph_kernels (14, 10, 3)
    @ [
        ("spmm", banded_spmm ());
        taco "spmv" Taco_kernels.Spmv;
        taco "residual" Taco_kernels.Residual;
        taco "mtmul" Taco_kernels.Mtmul;
        taco "sddmm" Taco_kernels.Sddmm;
      ])

let suite =
  [
    Alcotest.test_case "workloads compile under verify-each" `Quick
      test_workloads_verify_each;
    Alcotest.test_case "broken pass caught between stages" `Quick
      test_broken_pass_caught;
    Alcotest.test_case "broken pass ignored without verify-each" `Quick
      test_broken_pass_unchecked;
    Alcotest.test_case "dump-ir writes numbered snapshots" `Quick test_dump_ir;
    Alcotest.test_case "standard pass order" `Quick test_standard_order;
    Alcotest.test_case "report rendering" `Quick test_report_to_string;
    Alcotest.test_case "log level filtering" `Quick test_log_levels;
    Alcotest.test_case "log capture restores state" `Quick test_log_capture_restores;
    Alcotest.test_case "manager emits debug diagnostics" `Quick test_manager_logs_debug;
    Alcotest.test_case "stale merge cursor rejected" `Quick
      test_stale_merge_cursor_rejected;
    Alcotest.test_case "stale cursor in loop condition rejected" `Quick
      test_stale_cursor_in_condition_rejected;
    Alcotest.test_case "accepted cut sets terminate" `Quick
      test_accepted_cut_sets_terminate;
  ]

let () = Alcotest.run "passes" [ ("passes", suite) ]
