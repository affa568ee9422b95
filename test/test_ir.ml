(* Tests for the Phloem IR: interpreter semantics, queue/Kahn behaviour,
   control values and handlers, reference accelerators, trace columns,
   validation, the pipeline-equals-serial property on random programs, and
   the IR traversal's visit order against the interpreter's. *)

open Phloem_ir
open Types
open Builder

let vint_array a = Array.map (fun x -> Vint x) a

let ints_of_result res name =
  match List.assoc_opt name res.Interp.r_arrays with
  | None -> Alcotest.failf "array %s missing from result" name
  | Some a ->
    Array.map (function Vint i -> i | v -> Alcotest.failf "non-int %s" (value_to_string v)) a

(* --- simple serial semantics --- *)

let test_serial_sum () =
  (* out[0] = sum of a[0..n) *)
  let p =
    serial "sum"
      ~arrays:[ int_array "a" 10; int_array "out" 1 ]
      ~params:[ ("n", Vint 10) ]
      [
        "acc" <-- int 0;
        for_ "i" (int 0) (v "n") [ "acc" <-- (v "acc" +! load "a" (v "i")) ];
        store "out" (int 0) (v "acc");
      ]
  in
  let a = Array.init 10 (fun i -> i * 3) in
  let res = Interp.run ~inputs:[ ("a", vint_array a) ] p in
  Alcotest.(check int) "sum" (Array.fold_left ( + ) 0 a) (ints_of_result res "out").(0)

let test_two_stage_queue () =
  (* producer sends squares, consumer accumulates *)
  let p =
    pipeline "sq"
      ~arrays:[ int_array "out" 1 ]
      ~params:[ ("n", Vint 8) ]
      ~queues:[ queue 0 ]
      [
        stage "prod" [ for_ "i" (int 0) (v "n") [ enq 0 (v "i" *! v "i") ] ];
        stage "cons"
          [
            "acc" <-- int 0;
            for_ "i" (int 0) (v "n") [ "acc" <-- (v "acc" +! deq 0) ];
            store "out" (int 0) (v "acc");
          ];
      ]
  in
  let res = Interp.run p in
  Alcotest.(check int) "sum of squares" 140 (ints_of_result res "out").(0)

let test_control_value_check () =
  (* producer terminates the stream with a control value; consumer loops
     until it sees it, using an explicit is_control check. *)
  let p =
    pipeline "cv"
      ~arrays:[ int_array "out" 1 ]
      ~queues:[ queue 0 ]
      [
        stage "prod" [ for_ "i" (int 1) (int 6) [ enq 0 (v "i") ]; enq_ctrl 0 99 ];
        stage "cons"
          [
            "acc" <-- int 0;
            loop_forever
              [
                "x" <-- deq 0;
                when_ (is_control (v "x")) [ break_ ];
                "acc" <-- (v "acc" +! v "x");
              ];
            store "out" (int 0) (v "acc");
          ];
      ]
  in
  let res = Interp.run p in
  Alcotest.(check int) "sum 1..5" 15 (ints_of_result res "out").(0)

let test_control_value_handler () =
  (* Same but via a control-value handler: no per-element check. *)
  let p =
    pipeline "cvh"
      ~arrays:[ int_array "out" 1 ]
      ~queues:[ queue 0 ]
      [
        stage "prod" [ for_ "i" (int 1) (int 6) [ enq 0 (v "i") ]; enq_ctrl 0 99 ];
        stage "cons"
          ~handlers:
            [ handler ~queue:0 ~cv:"cv" [ store "out" (int 1) (ctrl_payload (v "cv")); exit_loops 1 ] ]
          [
            "acc" <-- int 0;
            loop_forever [ "acc" <-- (v "acc" +! deq 0) ];
            store "out" (int 0) (v "acc");
          ];
      ]
  in
  let p = { p with p_arrays = [ int_array "out" 2 ] } in
  let res = Interp.run p in
  let out = ints_of_result res "out" in
  Alcotest.(check int) "sum" 15 out.(0);
  Alcotest.(check int) "payload seen by handler" 99 out.(1)

let test_handler_skip_continue () =
  (* Handler that falls through: control values are skipped transparently. *)
  let p =
    pipeline "cvskip"
      ~arrays:[ int_array "out" 1 ]
      ~queues:[ queue 0 ]
      [
        stage "prod"
          [
            enq 0 (int 1);
            enq_ctrl 0 7;
            enq 0 (int 2);
            enq_ctrl 0 8;
            enq 0 (int 3);
            enq_ctrl 0 0;
          ];
        stage "cons"
          ~handlers:
            [
              handler ~queue:0 ~cv:"cv"
                [ when_ (ctrl_payload (v "cv") ==! int 0) [ exit_loops 1 ] ];
            ]
          [
            "acc" <-- int 0;
            loop_forever [ "acc" <-- (v "acc" +! deq 0) ];
            store "out" (int 0) (v "acc");
          ];
      ]
  in
  let res = Interp.run p in
  Alcotest.(check int) "data summed, cvs skipped" 6 (ints_of_result res "out").(0)

let test_ra_indirect () =
  (* producer sends indices; RA fetches table[idx]; consumer accumulates. *)
  let p =
    pipeline "ra"
      ~arrays:[ int_array "table" 16; int_array "out" 1 ]
      ~queues:[ queue 0; queue 1 ]
      ~ras:[ ra ~id:0 ~in_q:0 ~out_q:1 ~array:"table" ~mode:Ra_indirect ]
      [
        stage "prod" [ for_ "i" (int 0) (int 8) [ enq 0 (v "i" *! int 2) ] ];
        stage "cons"
          [
            "acc" <-- int 0;
            for_ "i" (int 0) (int 8) [ "acc" <-- (v "acc" +! deq 1) ];
            store "out" (int 0) (v "acc");
          ];
      ]
  in
  let table = Array.init 16 (fun i -> 100 + i) in
  let res = Interp.run ~inputs:[ ("table", vint_array table) ] p in
  let expected = List.init 8 (fun i -> table.(2 * i)) |> List.fold_left ( + ) 0 in
  Alcotest.(check int) "indirect RA" expected (ints_of_result res "out").(0)

let test_ra_scan_chained () =
  (* Chained RAs as in BFS: indirect on nodes (start/end), scan on edges. *)
  let nodes = [| 0; 2; 5; 6 |] in
  let edges = [| 10; 11; 20; 21; 22; 30 |] in
  let p =
    pipeline "chain"
      ~arrays:[ int_array "nodes" 4; int_array "edges" 6; int_array "out" 1 ]
      ~queues:[ queue 0; queue 1; queue 2 ]
      ~ras:
        [
          ra ~id:0 ~in_q:0 ~out_q:1 ~array:"nodes" ~mode:Ra_indirect;
          ra ~id:1 ~in_q:1 ~out_q:2 ~array:"edges" ~mode:Ra_scan;
        ]
      [
        stage "prod"
          [
            for_ "vtx" (int 0) (int 3) [ enq 0 (v "vtx"); enq 0 (v "vtx" +! int 1) ];
            enq_ctrl 0 1;
          ];
        stage "cons"
          ~handlers:[ handler ~queue:2 ~cv:"cv" [ exit_loops 1 ] ]
          [
            "acc" <-- int 0;
            loop_forever [ "acc" <-- (v "acc" +! deq 2) ];
            store "out" (int 0) (v "acc");
          ];
      ]
  in
  let res =
    Interp.run ~inputs:[ ("nodes", vint_array nodes); ("edges", vint_array edges) ] p
  in
  Alcotest.(check int) "all edges streamed" (Array.fold_left ( + ) 0 edges)
    (ints_of_result res "out").(0)

let test_feedback_queue () =
  (* Two stages with a feedback edge: stage B tells stage A how many rounds
     remain (models BFS round synchronization). *)
  let p =
    pipeline "feedback"
      ~arrays:[ int_array "out" 1 ]
      ~queues:[ queue 0; queue 1 ]
      [
        stage "head"
          [
            "rounds" <-- int 5;
            while_ (v "rounds" >! int 0)
              [ enq 0 (v "rounds"); "rounds" <-- deq 1 ];
          ];
        stage "tail"
          [
            "acc" <-- int 0;
            "r" <-- deq 0;
            while_ (v "r" >! int 0)
              [
                "acc" <-- (v "acc" +! v "r");
                enq 1 (v "r" -! int 1);
                "r" <-- deq 0;
              ];
            Seq_marker "unreachable";
          ];
      ]
  in
  (* head's loop ends when rounds = 0 but tail still waits for one more enq,
     so head must send the final 0 to unblock it. *)
  let p =
    {
      p with
      p_stages =
        [
          stage "head"
            [
              "rounds" <-- int 5;
              while_ (v "rounds" >! int 0)
                [ enq 0 (v "rounds"); "rounds" <-- deq 1 ];
              enq 0 (int 0);
            ];
          stage "tail"
            [
              "acc" <-- int 0;
              "r" <-- deq 0;
              while_ (v "r" >! int 0)
                [
                  "acc" <-- (v "acc" +! v "r");
                  enq 1 (v "r" -! int 1);
                  "r" <-- deq 0;
                ];
              store "out" (int 0) (v "acc");
            ];
        ];
    }
  in
  let res = Interp.run p in
  Alcotest.(check int) "5+4+3+2+1" 15 (ints_of_result res "out").(0)

let test_barrier_phases () =
  (* Phase 1: both stages write their half; phase 2: each reads the other's
     half. The barrier makes this safe. *)
  let p =
    pipeline "phases"
      ~arrays:[ int_array "buf" 2; int_array "out" 2 ]
      [
        stage "s0"
          [ store "buf" (int 0) (int 11); barrier 1; store "out" (int 0) (load "buf" (int 1)) ];
        stage "s1"
          [ store "buf" (int 1) (int 22); barrier 1; store "out" (int 1) (load "buf" (int 0)) ];
      ]
  in
  let res = Interp.run p in
  let out = ints_of_result res "out" in
  Alcotest.(check (pair int int)) "cross reads" (22, 11) (out.(0), out.(1))

let test_deadlock_detection () =
  let p =
    pipeline "dead"
      ~queues:[ queue 0 ]
      [ stage "only" [ "x" <-- deq 0 ] ]
  in
  match Interp.run p with
  | _ -> Alcotest.fail "expected Pipeline_failure"
  | exception Forensics.Pipeline_failure r ->
    Alcotest.(check string) "kind" "deadlock" (Forensics.kind_name r.fr_kind);
    Alcotest.(check string) "pipeline" "dead" r.fr_pipeline;
    (match r.fr_agents with
    | [ a ] ->
      Alcotest.(check string) "agent" "only" a.Forensics.ag_name;
      Alcotest.(check bool) "blocked on empty q0" true
        (a.Forensics.ag_blocked = Forensics.On_queue_empty 0)
    | l -> Alcotest.failf "expected 1 agent, got %d" (List.length l));
    (* q0 has no producer at all: no cycle, but a pointed diagnosis *)
    Alcotest.(check bool) "no wait cycle" true (r.fr_wait_cycle = []);
    Alcotest.(check bool) "diagnosis names the unproduced queue" true
      (List.exists
         (fun d ->
           let has needle =
             let nl = String.length needle and dl = String.length d in
             let rec go i = i + nl <= dl && (String.sub d i nl = needle || go (i + 1)) in
             go 0
           in
           has "q0" && has "ever enqueues")
         r.fr_diagnosis)

let test_enq_indexed () =
  (* distribute across two consumer queues by parity *)
  let p =
    pipeline "dist"
      ~arrays:[ int_array "out" 2 ]
      ~queues:[ queue 0; queue 1 ]
      [
        stage "prod"
          [
            for_ "i" (int 0) (int 10) [ enq_indexed [| 0; 1 |] (v "i" %! int 2) (v "i") ];
            enq_ctrl 0 1;
            enq_ctrl 1 1;
          ];
        stage "even"
          ~handlers:[ handler ~queue:0 ~cv:"c" [ exit_loops 1 ] ]
          [
            "acc" <-- int 0;
            loop_forever [ "acc" <-- (v "acc" +! deq 0) ];
            store "out" (int 0) (v "acc");
          ];
        stage "odd"
          ~handlers:[ handler ~queue:1 ~cv:"c" [ exit_loops 1 ] ]
          [
            "acc" <-- int 0;
            loop_forever [ "acc" <-- (v "acc" +! deq 1) ];
            store "out" (int 1) (v "acc");
          ];
      ]
  in
  let res = Interp.run p in
  let out = ints_of_result res "out" in
  Alcotest.(check (pair int int)) "parity sums" (20, 25) (out.(0), out.(1))

(* --- trace sanity --- *)

let test_trace_deps_wellformed () =
  let p =
    pipeline "tr"
      ~arrays:[ int_array "a" 4; int_array "out" 1 ]
      ~queues:[ queue 0 ]
      [
        stage "prod" [ for_ "i" (int 0) (int 4) [ enq 0 (load "a" (v "i")) ] ];
        stage "cons"
          [
            "acc" <-- int 0;
            for_ "i" (int 0) (int 4) [ "acc" <-- (v "acc" +! deq 0) ];
            store "out" (int 0) (v "acc");
          ];
      ]
  in
  let res = Interp.run ~inputs:[ ("a", vint_array [| 1; 2; 3; 4 |]) ] p in
  let tr = res.Interp.r_trace in
  Array.iter
    (fun th ->
      let n = Trace.length th in
      for i = 0 to n - 1 do
        (* a dependence is stored as its distance back, 0 for none *)
        let check_dep col =
          let x = Bytes.get_uint16_ne col (2 * i) in
          if x > i then Alcotest.failf "op %d depends on op %d, before the trace" i (i - x)
        in
        check_dep th.Trace.dep1;
        check_dep th.Trace.dep2;
        check_dep th.Trace.dep3
      done)
    tr.Trace.threads;
  Alcotest.(check bool) "ops recorded" true (Trace.op_count tr > 0)

(* --- trace columns --- *)

let max32 = 0x7fff_ffff
let min32 = -0x8000_0000

(* Each op's fields as the timing engine reads them, unchecked
   ([Bytes.unsafe_get], [Trace.get32u], [Trace.get16u]) and checked
   ([Bytes.get], [Bytes.get_int32_ne], [Bytes.get_uint16_ne]), with every
   dependence decoded from its distance: [cols] are the columns that hold op
   [i], at position [pos]. *)
let op_reads (cols : Bytes.t array) pos i =
  let dep x = if x = 0 then Trace.no_dep else i - x in
  let u16 c = dep (Trace.get16u cols.(c) (2 * pos))
  and c16 c = dep (Bytes.get_uint16_ne cols.(c) (2 * pos)) in
  [
    ( Char.code (Bytes.unsafe_get cols.(0) pos),
      Int32.to_int (Trace.get32u cols.(1) (4 * pos)),
      u16 2,
      u16 3,
      u16 4 );
    ( Char.code (Bytes.get cols.(0) pos),
      Int32.to_int (Bytes.get_int32_ne cols.(1) (4 * pos)),
      c16 2,
      c16 3,
      c16 4 );
  ]

let event_reads (cols : Bytes.t array) pos =
  let f c = Int32.to_int (Bytes.get_int32_ne cols.(c) (4 * pos))
  and u c = Int32.to_int (Trace.get32u cols.(c) (4 * pos)) in
  [ (u 0, u 1, u 2); (f 0, f 1, f 2) ]

(* Where op (or event) [i] lives: before [seal], in chunk [i / chunk_ops]
   of [filled] and the column fields; after it, in the column fields. *)
let locate ~sealed fields filled =
  if sealed then fun i -> (fields, i)
  else
    let chunks = Array.of_list (List.rev (fields :: filled)) in
    fun i -> (chunks.(i / Trace.chunk_ops), i mod Trace.chunk_ops)

(* A dependence as the columns decode it: a distance of [max_distance] or
   more saturates, and decodes to the op [max_distance] back. *)
let decoded i d = if d = Trace.no_dep then d else Int.max d (i - Trace.max_distance)

(* Valid ops, drawn from a seed: every [kind], [pa] at and between both
   signed 32-bit bounds, branches at sites up to 2^30 - 1 with both
   outcomes, and dependences none or at distance 1, 65534, 65535, 65536,
   2^20 or any other that names an op. Lengths cross chunk boundaries, and
   some traces are long enough for every distance. *)
let trace_ops n seed =
  let rs = Random.State.make [| seed |] in
  let pick a = a.(Random.State.int rs (Array.length a)) in
  let i32 () =
    if Random.State.bool rs then pick [| 0; -1; max32; min32 |]
    else Random.State.full_int rs (1 lsl 32) + min32
  in
  let distances = [| 0; 1; 65534; 65535; 65536; 1 lsl 20; 0 |] in
  Array.init n (fun i ->
      let dep () =
        let k = Random.State.int rs (Array.length distances) in
        let d = if k = 6 then 1 + Random.State.int rs (i + 1) else distances.(k) in
        if d = 0 || d > i then Trace.no_dep else i - d
      in
      let kind = if Random.State.bool rs then Trace.op_branch else Random.State.int rs 256 in
      let pa =
        if kind = Trace.op_branch then
          let site =
            if Random.State.bool rs then pick [| 0; (1 lsl 30) - 1 |]
            else Random.State.full_int rs (1 lsl 30)
          in
          (site lsl 1) lor Random.State.int rs 2
        else i32 ()
      in
      let d1 = dep () in
      let d2 = dep () in
      (kind, pa, d1, d2, dep ()))

let gen_trace_case =
  let open QCheck.Gen in
  let ops =
    frequency
      [
        (30, int_range 0 (3 * Trace.chunk_ops));
        (8, int_range 65_530 66_500);
        (1, int_range (1 lsl 20) ((1 lsl 20) + 100));
      ]
  in
  triple ops (int_range 0 (3 * Trace.chunk_ops)) (int_range 0 0x3fff_ffff)

let prop_trace_round_trip =
  QCheck.Test.make ~count:40 ~long_factor:10
    ~name:"trace fields round-trip before and after seal"
    (QCheck.make
       ~print:(fun (n, m, seed) -> Printf.sprintf "%d ops, %d RA events, seed %d" n m seed)
       gen_trace_case)
    (fun (n, m, seed) ->
      let ops = trace_ops n seed in
      let rs = Random.State.make [| seed; 1 |] in
      let i32 () = Random.State.full_int rs (1 lsl 32) + min32 in
      let events =
        Array.init m (fun _ ->
            match Random.State.int rs 4 with
            | 0 -> (max32, min32, -1)
            | 1 -> (min32, -1, max32)
            | _ -> (i32 (), i32 (), i32 ()))
      in
      let tr = Trace.create ~n_threads:1 ~n_ras:1 ~n_queues:0 in
      let th = tr.Trace.threads.(0) and ra = tr.Trace.ras.(0) in
      Array.iteri
        (fun i (kind, pa, dep1, dep2, dep3) ->
          if Trace.push th ~kind ~pa ~dep1 ~dep2 ~dep3 <> i then
            QCheck.Test.fail_reportf "push %d returned another index" i)
        ops;
      Array.iter (fun (in_seq, out_seq, addr) -> Trace.ra_push ra ~in_seq ~out_seq ~addr) events;
      let read_back ~sealed =
        let when_ = if sealed then "after seal" else "before seal" in
        let open Trace in
        let locate_op =
          locate ~sealed [| th.kind; th.pa; th.dep1; th.dep2; th.dep3 |] th.filled
        and locate_event = locate ~sealed [| ra.rt_in_seq; ra.rt_out_seq; ra.rt_addr |] ra.rt_filled in
        Array.iteri
          (fun i (kind, pa, d1, d2, d3) ->
            let cols, pos = locate_op i in
            let want = (kind, pa, decoded i d1, decoded i d2, decoded i d3) in
            let same (k, p, a, b, c) (k', p', a', b', c') =
              k = k' && p = p' && a = a' && b = b' && c = c'
            in
            if not (List.for_all (same want) (op_reads cols pos i)) then
              QCheck.Test.fail_reportf "op %d reads back changed %s" i when_;
            if kind = op_branch then begin
              let _, pa', _, _, _ = List.hd (op_reads cols pos i) in
              if (pa' asr 1, pa' land 1) <> (pa asr 1, pa land 1) then
                QCheck.Test.fail_reportf "branch %d decodes to another site or outcome" i
            end)
          ops;
        Array.iteri
          (fun i ev ->
            let cols, pos = locate_event i in
            if List.exists (( <> ) ev) (event_reads cols pos) then
              QCheck.Test.fail_reportf "RA event %d reads back changed %s" i when_)
          events
      in
      read_back ~sealed:false;
      Trace.seal tr;
      read_back ~sealed:true;
      let open Trace in
      (* sealed: no slack in any column *)
      List.for_all2
        (fun c w -> Bytes.length c = w * n)
        [ th.kind; th.pa; th.dep1; th.dep2; th.dep3 ]
        [ 1; 4; 2; 2; 2 ]
      && List.for_all2
           (fun c w -> Bytes.length c = w * m)
           [ ra.rt_in_seq; ra.rt_out_seq; ra.rt_addr ]
           [ 4; 4; 4 ]
      && Trace.bytes tr = (11 * n) + (12 * m)
      && Trace.op_bytes = 11 && Trace.ra_event_bytes = 12)

(* A value wider than its column raises, naming the column, and so does a
   dependence on the op itself, a later op, or below [no_dep]; the trace
   stays as it was: nothing is stored wrapped, nothing is appended. *)
let test_trace_narrowing () =
  let tr = Trace.create ~n_threads:1 ~n_ras:1 ~n_queues:0 in
  let th = tr.Trace.threads.(0) and ra = tr.Trace.ras.(0) in
  let push ?(kind = Trace.op_alu) ?(pa = 0) ?(dep1 = Trace.no_dep) ?(dep2 = Trace.no_dep)
      ?(dep3 = Trace.no_dep) () =
    ignore (Trace.push th ~kind ~pa ~dep1 ~dep2 ~dep3)
  in
  push ~kind:255 ~pa:max32 ();
  push ~pa:min32 ~dep1:0 ~dep2:Trace.no_dep ~dep3:0 ();
  let raises msg f = Alcotest.check_raises msg (Invalid_argument msg) f in
  let too_wide fn col v f = raises (Printf.sprintf "Trace.%s: %s %d does not fit its column" fn col v) f in
  let not_before col d f = raises (Printf.sprintf "Trace.push: %s %d is not an op before op 2" col d) f in
  too_wide "push" "kind" 256 (fun () -> push ~kind:256 ());
  too_wide "push" "kind" (-1) (fun () -> push ~kind:(-1) ());
  too_wide "push" "pa" (max32 + 1) (fun () -> push ~pa:(max32 + 1) ());
  too_wide "push" "pa" (min32 - 1) (fun () -> push ~pa:(min32 - 1) ());
  too_wide "push" "pa" max_int (fun () -> push ~pa:max_int ());
  not_before "dep1" 2 (fun () -> push ~dep1:2 ());
  not_before "dep2" 3 (fun () -> push ~dep2:3 ());
  not_before "dep3" max_int (fun () -> push ~dep3:max_int ());
  not_before "dep1" (-2) (fun () -> push ~dep1:(-2) ());
  not_before "dep2" min_int (fun () -> push ~dep2:min_int ());
  too_wide "ra_push" "in_seq" (max32 + 1) (fun () ->
      Trace.ra_push ra ~in_seq:(max32 + 1) ~out_seq:0 ~addr:0);
  too_wide "ra_push" "out_seq" (min32 - 1) (fun () ->
      Trace.ra_push ra ~in_seq:0 ~out_seq:(min32 - 1) ~addr:0);
  too_wide "ra_push" "addr" (max32 + 1) (fun () ->
      Trace.ra_push ra ~in_seq:0 ~out_seq:0 ~addr:(max32 + 1));
  too_wide "ra_push" "addr" (min32 - 1) (fun () ->
      Trace.ra_push ra ~in_seq:0 ~out_seq:0 ~addr:(min32 - 1));
  Alcotest.(check int) "failed pushes append nothing" 2 (Trace.length th);
  Alcotest.(check int) "failed RA pushes append nothing" 0 (Trace.ra_length ra);
  Trace.seal tr;
  Alcotest.(check (list int)) "sealed fields kept"
    [ 255; max32; min32; 0; 1; 0; 1 ]
    [
      Char.code (Bytes.get th.Trace.kind 0);
      Int32.to_int (Bytes.get_int32_ne th.Trace.pa 0);
      Int32.to_int (Bytes.get_int32_ne th.Trace.pa 4);
      Bytes.get_uint16_ne th.Trace.dep1 0;
      Bytes.get_uint16_ne th.Trace.dep1 2;
      Bytes.get_uint16_ne th.Trace.dep2 2;
      Bytes.get_uint16_ne th.Trace.dep3 2;
    ];
  raises "Trace.push: the trace is sealed" (fun () -> push ());
  raises "Trace.ra_push: the trace is sealed" (fun () ->
      Trace.ra_push ra ~in_seq:0 ~out_seq:0 ~addr:0)

(* --- validation --- *)

let test_validate_multiconsumer () =
  let p =
    pipeline "bad"
      ~queues:[ queue 0 ]
      [
        stage "p" [ enq 0 (int 1); enq 0 (int 2) ];
        stage "c1" [ "x" <-- deq 0 ];
        stage "c2" [ "y" <-- deq 0 ];
      ]
  in
  (match Validate.check p with
  | () -> Alcotest.fail "expected Invalid"
  | exception Validate.Invalid _ -> ())

let test_validate_undeclared_queue () =
  let p = pipeline "bad2" [ stage "p" [ enq 3 (int 1) ] ] in
  match Validate.check p with
  | () -> Alcotest.fail "expected Invalid"
  | exception Validate.Invalid _ -> ()

let test_validate_break_outside_loop () =
  let p = pipeline "bad3" [ stage "p" [ break_ ] ] in
  match Validate.check p with
  | () -> Alcotest.fail "expected Invalid"
  | exception Validate.Invalid _ -> ()

(* Every name a stage reads must be a param or bound in that stage: [n] is
   a param, [i] a [for] variable, [c] a handler variable and [y] assigned,
   but [x] is assigned only in the other stage. *)
let test_validate_unbound_read () =
  let reads x_bound =
    pipeline "bad4" ~params:[ ("n", Vint 2) ] ~queues:[ queue 0 ]
      [
        stage "p" [ "x" <-- int 1; for_ "i" (int 0) (v "n") [ enq 0 (v "i") ] ];
        stage "c"
          ~handlers:[ handler ~queue:0 ~cv:"c" [ "y" <-- v "c" ] ]
          ((if x_bound then [ "x" <-- int 0 ] else [])
          @ [ "y" <-- deq 0; "y" <-- v "y" +! v "x" ]);
      ]
  in
  Validate.check (reads true);
  match Validate.check (reads false) with
  | () -> Alcotest.fail "expected Invalid"
  | exception Validate.Invalid msg ->
    Alcotest.(check string) "names the stage and the name"
      "stage c reads x, which it never binds" msg

(* --- qcheck: random straight-line/loop programs, pipeline == serial --- *)

(* Generates a random two-stage map/filter pipeline and checks it computes
   the same as the equivalent serial loop. *)
let prop_two_stage_equiv =
  QCheck.Test.make ~count:100 ~name:"split map/filter pipeline equals serial"
    QCheck.(
      pair (list_of_size Gen.(int_range 1 40) (int_range (-100) 100)) (int_range 1 7))
    (fun (data, k) ->
      let n = List.length data in
      let arr = Array.of_list data in
      let serial_expected =
        Array.fold_left (fun acc x -> if x > 0 then acc + (x * k) else acc) 0 arr
      in
      let p =
        pipeline "prop"
          ~arrays:[ int_array "a" n; int_array "out" 1 ]
          ~params:[ ("n", Vint n); ("k", Vint k) ]
          ~queues:[ queue 0 ]
          [
            stage "filter"
              [
                for_ "i" (int 0) (v "n")
                  [
                    "x" <-- load "a" (v "i");
                    when_ (v "x" >! int 0) [ enq 0 (v "x") ];
                  ];
                enq_ctrl 0 1;
              ];
            stage "scale"
              ~handlers:[ handler ~queue:0 ~cv:"c" [ exit_loops 1 ] ]
              [
                "acc" <-- int 0;
                loop_forever [ "acc" <-- (v "acc" +! (deq 0 *! v "k")) ];
                store "out" (int 0) (v "acc");
              ];
          ]
      in
      let res = Interp.run ~inputs:[ ("a", vint_array arr) ] p in
      (ints_of_result res "out").(0) = serial_expected)

let prop_queue_traffic_counts =
  QCheck.Test.make ~count:50 ~name:"queue traffic equals values enqueued"
    QCheck.(int_range 0 50)
    (fun n ->
      let p =
        pipeline "traffic"
          ~params:[ ("n", Vint n) ]
          ~queues:[ queue 0 ]
          [
            stage "prod" [ for_ "i" (int 0) (v "n") [ enq 0 (v "i") ] ];
            stage "cons" [ for_ "i" (int 0) (v "n") [ "x" <-- deq 0 ] ];
          ]
      in
      let res = Interp.run p in
      res.Interp.r_queue_traffic.(0) = n)

(* --- the IR traversal against the interpreter --- *)

(* Straight-line code evaluates each expression exactly once, in the order
   [fold_stmts]/[stmt_exprs]/[fold_expr] visit them, so the queues of the
   Deq leaves they visit are, in order, the queues the consumer thread
   dequeues from. Every value is 0 (the producer sends zeros and every
   operator here keeps 0 at 0), so each index and selector is in range, no
   loop body runs and an [If] runs its else-block. A block holds at most
   6 x (8 + 4 x 16) Deq leaves, fewer than the 512 zeros per queue. *)
let prop_traversal_matches_interp =
  let out = 3 in
  let gen =
    let open QCheck.Gen in
    let expr nq =
      fix
        (fun self depth ->
          let leaf = map deq (int_bound (nq - 1)) in
          if depth = 0 then leaf
          else
            let sub = self (depth - 1) in
            frequency
              [
                (1, leaf);
                ( 2,
                  map3
                    (fun op a b -> Binop (op, a, b))
                    (oneofl [ Add; Sub; Mul; Band; Bor; Bxor; Min; Max ])
                    sub sub );
                (1, map2 (fun op a -> Unop (op, a)) (oneofl [ Neg; To_int; Fabs ]) sub);
                (1, map (load "a") sub);
                (1, map (call "f") (list_size (int_range 1 2) sub));
                (1, map is_control sub);
              ])
        3
    in
    let stmt nq =
      let e = expr nq in
      let simple =
        [
          map (fun x -> "x" <-- x) e;
          map2 (store "a") e e;
          map2 (atomic_min "a") e e;
          map2 (atomic_add "a") e e;
          map (prefetch "a") e;
          map (enq out) e;
          map2 (enq_indexed [| out |]) e e;
          map (fun c -> while_ c []) e;
          map2 (fun lo hi -> for_ "i" lo hi []) e e;
        ]
      in
      oneof
        (map2 (fun c f -> if_ c [] f) e (list_size (int_range 0 4) (oneof simple)) :: simple)
    in
    int_range 2 3 >>= fun nq -> map (fun block -> (nq, block)) (list_size (int_range 1 6) (stmt nq))
  in
  let program (nq, block) =
    pipeline "traversal"
      ~arrays:[ int_array "a" 4 ]
      ~queues:(List.init (out + 1) (fun q -> queue q))
      ~call_costs:[ ("f", 1) ]
      [
        stage "prod" (List.init nq (fun q -> for_ "i" (int 0) (int 512) [ enq q (int 0) ]));
        stage "cons" block;
      ]
  in
  QCheck.Test.make ~count:200 ~name:"traversal visits dequeues in interpreter order"
    (QCheck.make ~print:(fun b -> Printer.pipeline_to_string (program b)) gen)
    (fun b ->
      let p = program b in
      let cons = (List.nth p.p_stages 1).s_body in
      let deqs acc e = match e with Deq q -> q :: acc | _ -> acc in
      let visited =
        List.rev
          (fold_stmts (fun acc s -> List.fold_left (fold_expr deqs) acc (stmt_exprs s)) [] cons)
      in
      let th = (Interp.run p).Interp.r_trace.Trace.threads.(1) in
      let dequeued =
        List.filter_map
          (fun i ->
            if Char.code (Bytes.get th.Trace.kind i) = Trace.op_deq then
              Some (Int32.to_int (Bytes.get_int32_ne th.Trace.pa (4 * i)))
            else None)
          (List.init (Trace.length th) Fun.id)
      in
      visited <> [] && visited = dequeued)

let suite =
  [
    Alcotest.test_case "serial sum" `Quick test_serial_sum;
    Alcotest.test_case "two-stage queue" `Quick test_two_stage_queue;
    Alcotest.test_case "control value with check" `Quick test_control_value_check;
    Alcotest.test_case "control value handler" `Quick test_control_value_handler;
    Alcotest.test_case "handler skip/continue" `Quick test_handler_skip_continue;
    Alcotest.test_case "indirect RA" `Quick test_ra_indirect;
    Alcotest.test_case "chained scan RA" `Quick test_ra_scan_chained;
    Alcotest.test_case "feedback queue rounds" `Quick test_feedback_queue;
    Alcotest.test_case "barrier phases" `Quick test_barrier_phases;
    Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
    Alcotest.test_case "enq_indexed distribution" `Quick test_enq_indexed;
    Alcotest.test_case "trace deps well-formed" `Quick test_trace_deps_wellformed;
    Alcotest.test_case "trace narrowing raises" `Quick test_trace_narrowing;
    Alcotest.test_case "validate: multi-consumer" `Quick test_validate_multiconsumer;
    Alcotest.test_case "validate: undeclared queue" `Quick test_validate_undeclared_queue;
    Alcotest.test_case "validate: break outside loop" `Quick test_validate_break_outside_loop;
    Alcotest.test_case "validate: unbound read" `Quick test_validate_unbound_read;
    QCheck_alcotest.to_alcotest prop_two_stage_equiv;
    QCheck_alcotest.to_alcotest prop_queue_traffic_counts;
    QCheck_alcotest.to_alcotest prop_trace_round_trip;
    QCheck_alcotest.to_alcotest prop_traversal_matches_interp;
  ]

let () = Alcotest.run "phloem_ir" [ ("ir", suite) ]
