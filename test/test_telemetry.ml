(* Tests for the simulator telemetry layer: the counter/gauge registry,
   interval sampling (deltas must sum to the run's aggregate counters),
   the JSON emitter, and the Chrome trace-event export. *)

open Phloem_ir
open Builder
open Pipette
module Json = Phloem_util.Json

(* --- a minimal JSON parser, so we can check exported strings really parse --- *)

exception Bad_json of string

let parse_json (s : string) =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal lit =
    let l = String.length lit in
    if !pos + l <= n && String.sub s !pos l = lit then pos := !pos + l
    else fail (Printf.sprintf "expected %s" lit)
  in
  let parse_string () =
    expect '"';
    let continue = ref true in
    while !continue do
      if !pos >= n then fail "unterminated string";
      (match s.[!pos] with
      | '"' -> continue := false
      | '\\' ->
        incr pos;
        if !pos >= n then fail "bad escape";
        (match s.[!pos] with
        | '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' -> ()
        | 'u' ->
          for _ = 1 to 4 do
            incr pos;
            match peek () with
            | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> ()
            | _ -> fail "bad \\u escape"
          done
        | _ -> fail "bad escape")
      | _ -> ());
      incr pos
    done
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then incr pos;
    while
      match peek () with
      | Some ('0' .. '9' | '.' | 'e' | 'E' | '+' | '-') -> true
      | _ -> false
    do
      incr pos
    done;
    if !pos = start then fail "expected number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some _ -> ()
    | None -> fail "malformed number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      incr pos;
      skip_ws ();
      if peek () = Some '}' then incr pos
      else begin
        let continue = ref true in
        while !continue do
          skip_ws ();
          parse_string ();
          skip_ws ();
          expect ':';
          parse_value ();
          skip_ws ();
          match peek () with
          | Some ',' -> incr pos
          | Some '}' ->
            incr pos;
            continue := false
          | _ -> fail "expected ',' or '}'"
        done
      end
    | Some '[' ->
      incr pos;
      skip_ws ();
      if peek () = Some ']' then incr pos
      else begin
        let continue = ref true in
        while !continue do
          parse_value ();
          skip_ws ();
          match peek () with
          | Some ',' -> incr pos
          | Some ']' ->
            incr pos;
            continue := false
          | _ -> fail "expected ',' or ']'"
        done
      end
    | Some '"' -> parse_string ()
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | Some _ -> parse_number ()
    | None -> fail "unexpected end of input"
  in
  parse_value ();
  skip_ws ();
  if !pos <> n then fail "trailing garbage"

(* --- registry semantics, no engine involved --- *)

let test_registry_counter_vs_gauge () =
  let t = Telemetry.create ~interval:10 () in
  let c = ref 0 in
  Telemetry.register_counter t ~name:"c" (fun () -> !c);
  Telemetry.register_gauge t ~name:"g" (fun () -> !c * 2);
  c := 5;
  Telemetry.maybe_sample t ~cycle:10;
  c := 9;
  Telemetry.maybe_sample t ~cycle:25;
  Telemetry.maybe_sample t ~cycle:26;
  (* inside the same interval: no sample *)
  Telemetry.finish t ~cycle:40;
  let samples = Telemetry.samples t in
  Alcotest.(check int) "three samples (two boundaries + final flush)" 3
    (List.length samples);
  let values s name =
    let v = ref min_int in
    Array.iter (fun (n, x) -> if n = name then v := x) s.Telemetry.s_values;
    !v
  in
  (match samples with
  | [ s1; s2; s3 ] ->
    Alcotest.(check int) "first counter delta" 5 (values s1 "c");
    Alcotest.(check int) "second counter delta" 4 (values s2 "c");
    Alcotest.(check int) "final flush delta" 0 (values s3 "c");
    Alcotest.(check int) "gauge is instantaneous" 18 (values s2 "g")
  | _ -> Alcotest.fail "unexpected sample shape");
  Alcotest.(check int) "counter deltas sum to the aggregate" 9
    (Telemetry.sum_counter t "c")

let test_thread_state_spans () =
  let t = Telemetry.create ~interval:100 () in
  Telemetry.set_thread_state t ~thread:0 ~cycle:0 "issue";
  Telemetry.set_thread_state t ~thread:0 ~cycle:5 "backend";
  Telemetry.set_thread_state t ~thread:0 ~cycle:5 "backend";
  Telemetry.end_thread_state t ~thread:0 ~cycle:9;
  match Telemetry.spans t with
  | [ a; b ] ->
    Alcotest.(check string) "first span state" "issue" a.Telemetry.sp_state;
    Alcotest.(check int) "first span start" 0 a.Telemetry.sp_start;
    Alcotest.(check int) "first span end" 5 a.Telemetry.sp_end;
    Alcotest.(check string) "second span state" "backend" b.Telemetry.sp_state;
    Alcotest.(check int) "second span end" 9 b.Telemetry.sp_end
  | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans)

(* --- engine integration --- *)

let mk_pipeline n =
  pipeline "tel"
    ~arrays:[ int_array "A" n ]
    ~params:[ ("n", Types.Vint n) ]
    ~queues:[ queue 0 ]
    [
      stage "prod"
        [ for_ "i" (int 0) (v "n") [ "x" <-- load "A" (v "i"); enq 0 (v "x") ] ];
      stage "cons" [ for_ "i" (int 0) (v "n") [ "y" <-- (deq 0 +! int 1) ] ];
    ]

let run_with_telemetry ?(interval = 200) n =
  let tel = Telemetry.create ~interval () in
  let r = Sim.run ~telemetry:tel (mk_pipeline n) in
  (tel, r)

let test_samples_sum_to_aggregates () =
  let tel, r = run_with_telemetry 2000 in
  let t = r.Sim.sr_timing in
  let c = t.Engine.cache in
  let sum = Telemetry.sum_counter tel in
  Alcotest.(check int) "l1 hit deltas sum to aggregate" c.Cache.c_l1_hits
    (sum "cache.l1_hits");
  Alcotest.(check int) "l1 miss deltas sum to aggregate" c.Cache.c_l1_misses
    (sum "cache.l1_misses");
  Alcotest.(check int) "dram deltas sum to aggregate" c.Cache.c_dram
    (sum "cache.dram");
  Alcotest.(check int) "queue-op deltas sum to aggregate" t.Engine.queue_ops
    (sum "engine.queue_ops");
  Alcotest.(check int) "branch lookups sum to aggregate" t.Engine.branch_lookups
    (sum "branch.lookups");
  let stall_sum name =
    sum (Printf.sprintf "thread0.%s" name) + sum (Printf.sprintf "thread1.%s" name)
  in
  Alcotest.(check int) "issue cycles sum to aggregate" t.Engine.issue_cycles
    (stall_sum "issue_cycles");
  Alcotest.(check int) "queue stall cycles sum to aggregate" t.Engine.queue_cycles
    (stall_sum "queue_cycles");
  Alcotest.(check int) "backend cycles sum to aggregate" t.Engine.backend_cycles
    (stall_sum "backend_cycles");
  Alcotest.(check int) "other cycles sum to aggregate" t.Engine.other_cycles
    (stall_sum "other_cycles");
  (* sample cycles are strictly increasing and within the run *)
  let cycles = List.map (fun s -> s.Telemetry.s_cycle) (Telemetry.samples tel) in
  let rec mono = function
    | a :: (b :: _ as rest) -> a < b && mono rest
    | _ -> true
  in
  Alcotest.(check bool) "sample cycles strictly increasing" true (mono cycles);
  Alcotest.(check bool) "samples taken" true (List.length cycles > 2)

let test_dispatch_bandwidth_conservation () =
  (* Per-cycle dispatch-bandwidth conservation: between two samples spanning
     d cycles, at most d * dispatch_width * n_cores ops can have been
     dispatched. Sampled at every cycle this is the per-cycle bound. *)
  let tel, r = run_with_telemetry ~interval:1 800 in
  let cfg = Config.default in
  let width = cfg.Config.dispatch_width * cfg.Config.n_cores in
  (* a sample at cycle c covers dispatch in cycles (prev, c]; the first one
     also covers cycle 0 *)
  let prev = ref (-1) in
  List.iter
    (fun s ->
      let span = s.Telemetry.s_cycle - !prev in
      prev := s.Telemetry.s_cycle;
      Array.iter
        (fun (name, v) ->
          if name = "engine.dispatched" then begin
            if v > span * width then
              Alcotest.failf "dispatched %d ops in %d cycles (width %d)" v span width
          end)
        s.Telemetry.s_values)
    (Telemetry.samples tel);
  Alcotest.(check bool) "ran" true (r.Sim.sr_timing.Engine.cycles > 0)

let test_queue_occupancy_gauge_bounded () =
  let tel, _ = run_with_telemetry ~interval:50 1000 in
  List.iter
    (fun s ->
      Array.iter
        (fun (name, v) ->
          if name = "queue0.occupancy" then
            Alcotest.(check bool)
              (Printf.sprintf "occupancy %d within capacity" v)
              true
              (v >= 0 && v <= Config.default.Config.queue_depth))
        s.Telemetry.s_values)
    (Telemetry.samples tel)

(* --- exports --- *)

let test_report_json_parses () =
  let tel, r = run_with_telemetry 1000 in
  parse_json (Json.to_string (Sim.json_of_run r));
  parse_json (Json.to_string (Telemetry.report_json tel));
  let s = Json.to_string (Telemetry.report_json tel) in
  Alcotest.(check bool) "report mentions samples" true
    (Str.string_match (Str.regexp ".*\"samples\".*") s 0)

let test_json_escaping () =
  let j = Json.(Obj [ ("we\"ird\n", Str "a\\b\tc\x01") ]) in
  let s = Json.to_string j in
  parse_json s;
  Alcotest.(check string) "escapes" "{\"we\\\"ird\\n\":\"a\\\\b\\tc\\u0001\"}" s

let test_trace_export () =
  let tel, r = run_with_telemetry ~interval:100 1500 in
  let trace = Telemetry.trace_json tel in
  parse_json (Json.to_string trace);
  let events =
    match trace with
    | Json.Obj kvs -> (
      match List.assoc "traceEvents" kvs with
      | Json.List l -> l
      | _ -> Alcotest.fail "traceEvents is not a list")
    | _ -> Alcotest.fail "trace is not an object"
  in
  let ph e =
    match e with
    | Json.Obj kvs -> (
      match List.assoc_opt "ph" kvs with Some (Json.Str p) -> p | _ -> "?")
    | _ -> "?"
  in
  let count p = List.length (List.filter (fun e -> ph e = p) events) in
  Alcotest.(check bool) "has span events" true (count "X" > 0);
  Alcotest.(check bool) "has counter events" true (count "C" > 0);
  Alcotest.(check bool) "has metadata events" true (count "M" > 0);
  (* one timeline track per thread *)
  let tids =
    List.filter_map
      (fun e ->
        match e with
        | Json.Obj kvs when ph e = "X" -> (
          match List.assoc_opt "tid" kvs with
          | Some (Json.Int tid) -> Some tid
          | _ -> None)
        | _ -> None)
      events
    |> List.sort_uniq compare
  in
  Alcotest.(check int) "one span track per thread"
    r.Sim.sr_timing.Engine.n_threads (List.length tids);
  (* spans are well-formed *)
  List.iter
    (fun e ->
      match e with
      | Json.Obj kvs when ph e = "X" -> (
        match (List.assoc_opt "ts" kvs, List.assoc_opt "dur" kvs) with
        | Some (Json.Int ts), Some (Json.Int dur) ->
          if ts < 0 || dur <= 0 then Alcotest.failf "bad span ts=%d dur=%d" ts dur
        | _ -> Alcotest.fail "span without ts/dur")
      | _ -> ())
    events

let test_no_telemetry_same_result () =
  (* The telemetry hook must not perturb the timing model. *)
  let r1 = Sim.run (mk_pipeline 700) in
  let tel = Telemetry.create ~interval:64 () in
  let r2 = Sim.run ~telemetry:tel (mk_pipeline 700) in
  Alcotest.(check int) "same cycles" (Sim.cycles r1) (Sim.cycles r2);
  Alcotest.(check int) "same instrs" (Sim.instrs r1) (Sim.instrs r2)

let suite =
  [
    Alcotest.test_case "registry counter vs gauge" `Quick test_registry_counter_vs_gauge;
    Alcotest.test_case "thread state spans" `Quick test_thread_state_spans;
    Alcotest.test_case "samples sum to aggregates" `Quick test_samples_sum_to_aggregates;
    Alcotest.test_case "dispatch bandwidth conservation" `Quick
      test_dispatch_bandwidth_conservation;
    Alcotest.test_case "queue occupancy gauge bounded" `Quick
      test_queue_occupancy_gauge_bounded;
    Alcotest.test_case "report JSON parses" `Quick test_report_json_parses;
    Alcotest.test_case "JSON escaping" `Quick test_json_escaping;
    Alcotest.test_case "Chrome trace export" `Quick test_trace_export;
    Alcotest.test_case "telemetry does not perturb timing" `Quick
      test_no_telemetry_same_result;
  ]

let () = Alcotest.run "telemetry" [ ("telemetry", suite) ]
