(* Wire-protocol and daemon tests for phloemd (Phloem_serve).

   Unit layers first — request parsing and rejection codes, response
   envelopes and raw-payload extraction, the content-addressed key, and
   the fair bounded scheduler, the client's line reader — then end-to-end
   runs against a real server on a Unix-domain socket in this process: a
   repeated request must come back as a cache hit with byte-identical
   payload bytes and without re-running any compile/trace phase, a full
   queue must answer with a structured shed-load response rather than
   blocking or dying, a short cold job must not wait for a long one
   running on another worker, and an identical job arriving while one runs
   must share that run. *)

module Protocol = Phloem_serve.Protocol
module Scheduler = Phloem_serve.Scheduler
module Server = Phloem_serve.Server
module Client = Phloem_serve.Client
module Obs = Phloem_serve.Obs
module Metrics = Phloem_util.Metrics
module Stats = Phloem_util.Stats
module Json = Phloem_util.Json

(* --- request parsing ---------------------------------------------------- *)

let reject_code ?(max_bytes = 4096) line =
  match Protocol.parse_request ~max_bytes line with
  | Error r -> r.Protocol.rj_code
  | Ok _ -> Alcotest.failf "expected a reject for %S" line

let test_parse_rejects () =
  Alcotest.(check string)
    "malformed JSON" "bad-request"
    (reject_code "{\"kind\":\"simulate\",");
  Alcotest.(check string) "not JSON at all" "bad-request" (reject_code "hello");
  Alcotest.(check string)
    "missing kind" "bad-request"
    (reject_code "{\"id\":1,\"bench\":\"bfs\"}");
  Alcotest.(check string)
    "unknown kind" "unknown-kind"
    (reject_code "{\"kind\":\"explode\"}");
  Alcotest.(check string)
    "simulate without bench" "bad-request"
    (reject_code "{\"kind\":\"simulate\",\"input\":\"internet\"}");
  Alcotest.(check string)
    "simulate without input" "bad-request"
    (reject_code "{\"kind\":\"simulate\",\"bench\":\"bfs\"}");
  Alcotest.(check string)
    "bad fault plan" "bad-request"
    (reject_code
       "{\"kind\":\"simulate\",\"bench\":\"bfs\",\"input\":\"internet\",\"inject\":\"nonsense\"}")

let test_parse_oversized () =
  (* the length bound is checked before parsing: even well-formed JSON past
     the bound is rejected as oversized *)
  let line =
    Printf.sprintf "{\"kind\":\"ping\",\"pad\":\"%s\"}" (String.make 256 'x')
  in
  Alcotest.(check string)
    "oversized rejects before parse" "oversized"
    (reject_code ~max_bytes:64 line);
  Alcotest.(check string)
    "oversized garbage too" "oversized"
    (reject_code ~max_bytes:8 (String.make 64 '{'))

let test_parse_simulate_roundtrip () =
  let job =
    {
      Protocol.default_job with
      Protocol.j_bench = "cc";
      j_input = "internet";
      j_variant = "data-parallel";
      j_scale = 0.25;
      j_stages = 6;
      j_threads = 2;
      j_watchdog = Some 9999;
      j_cycle_budget = Some 123456;
    }
  in
  let line = Protocol.simulate_request ~id:(Json.Int 7) job in
  match Protocol.parse_request ~max_bytes:4096 line with
  | Error r -> Alcotest.failf "round-trip rejected: %s" r.Protocol.rj_msg
  | Ok (Protocol.Simulate { id; job = j }) ->
    Alcotest.(check bool) "id echoed" true (id = Json.Int 7);
    Alcotest.(check string) "bench" job.Protocol.j_bench j.Protocol.j_bench;
    Alcotest.(check string) "variant" job.Protocol.j_variant j.Protocol.j_variant;
    Alcotest.(check string) "input" job.Protocol.j_input j.Protocol.j_input;
    Alcotest.(check (float 1e-9)) "scale" job.Protocol.j_scale j.Protocol.j_scale;
    Alcotest.(check int) "stages" job.Protocol.j_stages j.Protocol.j_stages;
    Alcotest.(check int) "threads" job.Protocol.j_threads j.Protocol.j_threads;
    Alcotest.(check (option int)) "watchdog" job.Protocol.j_watchdog
      j.Protocol.j_watchdog;
    Alcotest.(check (option int)) "cycle budget" job.Protocol.j_cycle_budget
      j.Protocol.j_cycle_budget;
    Alcotest.(check string) "same content key" (Protocol.content_key job)
      (Protocol.content_key j)
  | Ok _ -> Alcotest.fail "parsed as the wrong kind"

let test_parse_sanitizes_id () =
  (* a structured id could smuggle an unescaped result marker into the
     envelope; it is replaced by null *)
  match
    Protocol.parse_request ~max_bytes:4096
      "{\"kind\":\"ping\",\"id\":{\"evil\":1}}"
  with
  | Ok (Protocol.Ping { id }) ->
    Alcotest.(check bool) "structured id nulled" true (id = Json.Null)
  | _ -> Alcotest.fail "ping with structured id should still parse"

(* --- response envelopes -------------------------------------------------- *)

let test_envelope_payload_raw () =
  let payload = "{\"cycles\":12,\"speedup\":2.5,\"valid\":true}" in
  let line = Protocol.ok_response ~id:(Json.Int 3) ~cached:false payload in
  Alcotest.(check (option string)) "payload extracted verbatim" (Some payload)
    (Protocol.response_payload_raw line);
  Alcotest.(check (option string)) "trailing newline tolerated" (Some payload)
    (Protocol.response_payload_raw (line ^ "\n"));
  (* a string id whose *content* spells the marker is escaped when the
     envelope is serialized, so extraction still finds the real payload *)
  let evil = Json.Str ",\"result\":" in
  let line = Protocol.ok_response ~id:evil ~cached:true payload in
  Alcotest.(check (option string)) "marker-shaped id cannot confuse extraction"
    (Some payload)
    (Protocol.response_payload_raw line);
  (* a payload with its own "result" field: the envelope's marker comes
     first, so the payload bytes still come back whole *)
  let nested = "{\"a\":1,\"result\":{\"b\":2}}" in
  let line = Protocol.ok_response ~id:Json.Null ~cached:false nested in
  Alcotest.(check (option string)) "nested result field preserved" (Some nested)
    (Protocol.response_payload_raw line)

let test_envelope_statuses () =
  let ok = Json.of_string (Protocol.ok_response ~id:(Json.Int 1) ~cached:true "7") in
  Alcotest.(check string) "ok status" "ok" (Protocol.response_status ok);
  Alcotest.(check bool) "cached flag" true (Protocol.response_cached ok);
  let err =
    Json.of_string
      (Protocol.error_response ~id:Json.Null ~code:"bad-request" "nope")
  in
  Alcotest.(check string) "error status" "error" (Protocol.response_status err);
  Alcotest.(check bool) "errors are not cached" false
    (Protocol.response_cached err);
  let shed =
    Json.of_string (Protocol.shed_response ~id:(Json.Int 2) ~queued:64 ~limit:64)
  in
  Alcotest.(check string) "shed status" "shed" (Protocol.response_status shed);
  (match Json.member "code" shed with
  | Some (Json.Str c) -> Alcotest.(check string) "shed code" "queue-full" c
  | _ -> Alcotest.fail "shed response needs a code");
  match (Json.member "queued" shed, Json.member "limit" shed) with
  | Some (Json.Int q), Some (Json.Int l) ->
    Alcotest.(check (pair int int)) "shed carries occupancy" (64, 64) (q, l)
  | _ -> Alcotest.fail "shed response needs queued and limit"

let test_content_key () =
  let base = { Protocol.default_job with Protocol.j_scale = 0.1 } in
  Alcotest.(check string) "key is deterministic" (Protocol.content_key base)
    (Protocol.content_key base);
  Alcotest.(check int) "key is a hex digest" 32
    (String.length (Protocol.content_key base));
  let differs label j =
    Alcotest.(check bool) label false
      (String.equal (Protocol.content_key base) (Protocol.content_key j))
  in
  differs "bench feeds the key" { base with Protocol.j_bench = "cc" };
  differs "variant feeds the key" { base with Protocol.j_variant = "serial" };
  differs "scale feeds the key" { base with Protocol.j_scale = 0.2 };
  differs "stages feed the key" { base with Protocol.j_stages = 5 };
  differs "budget feeds the key" { base with Protocol.j_cycle_budget = Some 10 }

(* --- scheduler ----------------------------------------------------------- *)

let take_job s =
  match Scheduler.take s with
  | Some (job, _) -> job
  | None -> Alcotest.fail "expected a queued job"

let test_scheduler_fairness () =
  let s = Scheduler.create ~limit:16 () in
  let ok = function
    | Ok () -> ()
    | Error _ -> Alcotest.fail "unexpected shed"
  in
  ok (Scheduler.submit s ~client:1 "a1");
  ok (Scheduler.submit s ~client:1 "a2");
  ok (Scheduler.submit s ~client:1 "a3");
  ok (Scheduler.submit s ~client:2 "b1");
  Alcotest.(check (list string))
    "dispatch interleaves clients despite arrival order"
    [ "a1"; "b1"; "a2"; "a3" ]
    (List.init 4 (fun _ -> take_job s));
  let st = Scheduler.stats s in
  Alcotest.(check int) "accepted" 4 st.Scheduler.st_accepted;
  Alcotest.(check int) "dispatched" 4 st.Scheduler.st_dispatched;
  Alcotest.(check int) "drained" 0 st.Scheduler.st_queued

let test_scheduler_shed () =
  let s = Scheduler.create ~limit:2 () in
  ignore (Scheduler.submit s ~client:1 "j1");
  ignore (Scheduler.submit s ~client:2 "j2");
  (match Scheduler.submit s ~client:3 "j3" with
  | Ok () -> Alcotest.fail "submit past the bound must shed"
  | Error { Scheduler.sh_queued; sh_limit } ->
    Alcotest.(check (pair int int)) "shed reports occupancy" (2, 2)
      (sh_queued, sh_limit));
  let st = Scheduler.stats s in
  Alcotest.(check int) "accepted unaffected" 2 st.Scheduler.st_accepted;
  (* limit 0 sheds everything — drain mode *)
  let z = Scheduler.create ~limit:0 () in
  match Scheduler.submit z ~client:1 "x" with
  | Ok () -> Alcotest.fail "limit 0 must shed"
  | Error { Scheduler.sh_limit; _ } ->
    Alcotest.(check int) "limit 0 reported" 0 sh_limit

let test_scheduler_queue_wait () =
  (* deterministic clock: submits at t=1 and t=2, dispatch at t=10 *)
  let now = ref 1.0 in
  let s = Scheduler.create ~limit:8 ~clock:(fun () -> !now) () in
  ignore (Scheduler.submit s ~client:1 "j1");
  now := 2.0;
  ignore (Scheduler.submit s ~client:1 "j2");
  now := 10.0;
  (match (Scheduler.take s, Scheduler.take s) with
  | Some ("j1", w1), Some ("j2", w2) ->
    Alcotest.(check (float 1e-9)) "first job waited 9s" 9.0 w1;
    Alcotest.(check (float 1e-9)) "second job waited 8s" 8.0 w2
  | _ -> Alcotest.fail "expected j1 then j2");
  let st = Scheduler.stats s in
  Alcotest.(check (float 1e-9)) "wait total" 17.0 st.Scheduler.st_wait_total_s;
  Alcotest.(check (float 1e-9)) "wait max" 9.0 st.Scheduler.st_wait_max_s;
  (* a clock running backwards cannot produce negative waits *)
  let back = ref 5.0 in
  let s2 = Scheduler.create ~limit:4 ~clock:(fun () -> !back) () in
  ignore (Scheduler.submit s2 ~client:1 "x");
  back := 3.0;
  (match Scheduler.take s2 with
  | Some (_, w) -> Alcotest.(check (float 1e-9)) "clamped at zero" 0.0 w
  | None -> Alcotest.fail "expected one job")

let test_scheduler_close_drains () =
  let s = Scheduler.create ~limit:8 () in
  ignore (Scheduler.submit s ~client:1 "j1");
  ignore (Scheduler.submit s ~client:1 "j2");
  Scheduler.close s;
  (match Scheduler.submit s ~client:1 "late" with
  | Ok () -> Alcotest.fail "closed scheduler must shed"
  | Error _ -> ());
  Alcotest.(check (list string))
    "queued jobs still drain after close" [ "j1"; "j2" ]
    (List.init 2 (fun _ -> take_job s));
  Alcotest.(check bool)
    "closed and drained yields the exit signal" true
    (Scheduler.take s = None)

(* OCaml 5.1 runs at most 128 domains and the daemon's own domain is one
   of them: the worker count never exceeds 127, whatever the machine
   recommends. Pure arithmetic; no domain is spawned. *)
let test_worker_domains () =
  let w recommended jobs = Server.worker_domains ~recommended jobs in
  Alcotest.(check int) "as asked" 3 (w 8 3);
  Alcotest.(check int) "at least one" 1 (w 8 0);
  Alcotest.(check int) "recommended count bounds" 8 (w 8 20);
  Alcotest.(check int) "default jobs on a 128-CPU host" 127 (w 128 128);
  Alcotest.(check int) "large hosts" 127 (w 256 1000);
  Alcotest.(check int) "just under the cap" 126 (w 256 126);
  Alcotest.(check int) "at the cap" 127 (w 127 127)

(* --- client --------------------------------------------------------------- *)

(* Two lines in one write, the first longer than the client's read chunk:
   each comes back whole, and the second is still there for the second
   call. *)
let test_client_recv_line () =
  let r, w = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close r with Unix.Unix_error _ -> ())
    (fun () ->
      let long = String.init 10_000 (fun i -> Char.chr (97 + (i mod 26))) in
      let short = "{\"status\":\"ok\"}" in
      Client.send_line w (long ^ "\n" ^ short);
      Unix.close w;
      Alcotest.(check string) "long line whole" long (Client.recv_line r);
      Alcotest.(check string) "pipelined line intact" short (Client.recv_line r);
      Alcotest.check_raises "end of stream" End_of_file (fun () ->
          ignore (Client.recv_line r)))

(* --- end-to-end over a Unix-domain socket -------------------------------- *)

let with_server ?(jobs = 1) ?(queue_limit = 64) ?(max_request = 1 lsl 20) ?obs
    f =
  let sock = Filename.temp_file "phloemd-test" ".sock" in
  Sys.remove sock;
  let server =
    Server.create
      {
        Server.default_opts with
        Server.so_unix = Some sock;
        so_jobs = jobs;
        so_queue_limit = queue_limit;
        so_max_request = max_request;
        so_obs = obs;
      }
  in
  let th = Thread.create Server.run server in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Thread.join th;
      if Sys.file_exists sock then Sys.remove sock)
    (fun () -> f sock server)

(* a small, fast job: the tiny-scale internet graph through the compiler *)
let tiny_job = { Protocol.default_job with Protocol.j_scale = 0.05 }

(* The stats payload, requested on a connection of its own. *)
let stats_of sock =
  match
    Protocol.response_payload_raw
      (Client.with_unix sock (fun fd ->
           Client.request fd (Protocol.plain_request "stats")))
  with
  | Some p -> Json.of_string p
  | None -> Alcotest.fail "stats response needs a payload"

let stats_int stats path =
  match
    List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some stats) path
  with
  | Some (Json.Int n) -> n
  | _ -> Alcotest.failf "stats lack int %s" (String.concat "." path)

let test_e2e_cache_hit_byte_identical () =
  with_server (fun sock _server ->
      Pipette.Sim.clear_caches ();
      let req = Protocol.simulate_request ~id:(Json.Int 1) tiny_job in
      let r1 = Client.with_unix sock (fun fd -> Client.request fd req) in
      let j1 = Json.of_string r1 in
      Alcotest.(check string) "cold run ok" "ok" (Protocol.response_status j1);
      Alcotest.(check bool) "cold run is not cached" false
        (Protocol.response_cached j1);
      let sim_cold = Pipette.Sim.cache_counters () in
      let r2 = Client.with_unix sock (fun fd -> Client.request fd req) in
      let j2 = Json.of_string r2 in
      Alcotest.(check string) "repeat ok" "ok" (Protocol.response_status j2);
      Alcotest.(check bool) "repeat served from the cache" true
        (Protocol.response_cached j2);
      (let p1 = Protocol.response_payload_raw r1
       and p2 = Protocol.response_payload_raw r2 in
       match (p1, p2) with
       | Some p1, Some p2 ->
         Alcotest.(check string) "payload bytes identical" p1 p2;
         (match Json.member "valid" (Json.of_string p1) with
         | Some (Json.Bool v) -> Alcotest.(check bool) "result valid" true v
         | _ -> Alcotest.fail "payload needs a valid field")
       | _ -> Alcotest.fail "both responses must carry raw payloads");
      (* the hit never reached the job runner: no compile / trace activity *)
      let sim_hit = Pipette.Sim.cache_counters () in
      Alcotest.(check int) "no re-trace on a hit"
        sim_cold.Pipette.Sim.cc_trace_misses sim_hit.Pipette.Sim.cc_trace_misses;
      Alcotest.(check int) "no recompile on a hit"
        sim_cold.Pipette.Sim.cc_program_misses
        sim_hit.Pipette.Sim.cc_program_misses;
      (* the daemon's own stats agree: one result-cache miss, one hit *)
      let stats =
        Client.with_unix sock (fun fd ->
            Client.request fd (Protocol.plain_request ~id:(Json.Int 2) "stats"))
      in
      match Protocol.response_payload_raw stats with
      | None -> Alcotest.fail "stats response must carry a payload"
      | Some payload -> (
        match Json.member "result_cache" (Json.of_string payload) with
        | Some rc ->
          let geti k =
            match Json.member k rc with Some (Json.Int i) -> i | _ -> -1
          in
          Alcotest.(check int) "one result-cache hit" 1 (geti "hits");
          Alcotest.(check int) "one result-cache miss" 1 (geti "misses");
          Alcotest.(check int) "one resident entry" 1 (geti "entries")
        | None -> Alcotest.fail "stats payload needs result_cache"))

let test_e2e_rejects_and_shed () =
  (* queue limit 0: every cold simulate sheds; the daemon stays up and
     keeps answering on the same connection. One worker more than the
     machine recommends is asked for; stats report the clamped count. *)
  let recommended = Domain.recommended_domain_count () in
  with_server ~jobs:(recommended + 1) ~queue_limit:0 (fun sock _server ->
      Client.with_unix sock (fun fd ->
          let bad = Client.request fd "this is not json" in
          let j = Json.of_string bad in
          Alcotest.(check string) "malformed line is a structured error" "error"
            (Protocol.response_status j);
          (match Json.member "code" j with
          | Some (Json.Str c) -> Alcotest.(check string) "code" "bad-request" c
          | _ -> Alcotest.fail "error response needs a code");
          let unk = Json.of_string (Client.request fd "{\"kind\":\"frobnicate\"}") in
          Alcotest.(check string) "unknown kind is a structured error" "error"
            (Protocol.response_status unk);
          (match Json.member "code" unk with
          | Some (Json.Str c) -> Alcotest.(check string) "code" "unknown-kind" c
          | _ -> Alcotest.fail "error response needs a code");
          let shed =
            Json.of_string
              (Client.request fd
                 (Protocol.simulate_request ~id:(Json.Int 9) tiny_job))
          in
          Alcotest.(check string) "full queue sheds" "shed"
            (Protocol.response_status shed);
          (match Json.member "code" shed with
          | Some (Json.Str c) -> Alcotest.(check string) "code" "queue-full" c
          | _ -> Alcotest.fail "shed response needs a code");
          (* the connection survived all three rejections *)
          let pong = Json.of_string (Client.request fd "{\"kind\":\"ping\"}") in
          Alcotest.(check string) "daemon still answers" "ok"
            (Protocol.response_status pong);
          (* the stats request is the fifth; it counts itself as ok *)
          let stats =
            match
              Protocol.response_payload_raw
                (Client.request fd (Protocol.plain_request "stats"))
            with
            | Some p -> Json.of_string p
            | None -> Alcotest.fail "stats response needs a payload"
          in
          let field path =
            List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some stats)
              path
          in
          let int path =
            match field path with
            | Some (Json.Int n) -> n
            | _ -> Alcotest.failf "stats lacks int %s" (String.concat "." path)
          in
          Alcotest.(check int) "effective worker count"
            (Int.min recommended 127) (int [ "jobs" ]);
          Alcotest.(check int) "requests" 5 (int [ "requests" ]);
          Alcotest.(check int) "ok" 2 (int [ "ok" ]);
          Alcotest.(check int) "errors" 2 (int [ "errors" ]);
          Alcotest.(check int) "shed" 1 (int [ "shed" ]);
          Alcotest.(check int) "shed equals the scheduler's" 1
            (int [ "scheduler"; "shed" ]);
          Alcotest.(check (option (float 0.0)))
            "no dispatch, zero mean wait" (Some 0.0)
            (Option.bind (field [ "scheduler"; "queue_wait_mean_s" ])
               Json.to_float_opt)))

let test_e2e_oversized () =
  with_server ~max_request:128 (fun sock _server ->
      (* a complete (newline-terminated) line past the bound: structured
         oversized error, connection survives *)
      Client.with_unix sock (fun fd ->
          Client.send_line fd
            (Printf.sprintf "{\"kind\":\"ping\",\"pad\":\"%s\"}"
               (String.make 512 'x'));
          let j = Json.of_string (Client.recv_line fd) in
          Alcotest.(check string) "oversized line is a structured error" "error"
            (Protocol.response_status j);
          (match Json.member "code" j with
          | Some (Json.Str c) -> Alcotest.(check string) "code" "oversized" c
          | _ -> Alcotest.fail "error response needs a code");
          let pong = Json.of_string (Client.request fd "{\"kind\":\"ping\"}") in
          Alcotest.(check string) "connection survives a bounded line" "ok"
            (Protocol.response_status pong));
      (* an unbounded line (no newline within the bound): the daemon rejects
         and drops the connection rather than buffer without limit *)
      Client.with_unix sock (fun fd ->
          let raw = Bytes.of_string (String.make 512 '{') in
          let n = Bytes.length raw in
          let rec wloop off =
            if off < n then wloop (off + Unix.write fd raw off (n - off))
          in
          wloop 0;
          let j = Json.of_string (Client.recv_line fd) in
          (match Json.member "code" j with
          | Some (Json.Str c) ->
            Alcotest.(check string) "unbounded line rejected" "oversized" c
          | _ -> Alcotest.fail "error response needs a code");
          Alcotest.check_raises "connection dropped after unbounded line"
            End_of_file (fun () -> ignore (Client.recv_line fd))))

(* Observability enabled: a cold+warm pair must leave a metrics snapshot
   with hit p50 < miss p50 and a populated queue-wait histogram, the
   recorded spans must order and nest correctly across distinct tracks,
   and — critically — the response bytes must stay exactly as without
   observability (the cache hit still splices raw payload bytes). *)
let test_e2e_observability () =
  let obs = Obs.create ~slow_ms:1e9 () in
  with_server ~obs (fun sock _server ->
      Pipette.Sim.clear_caches ();
      let req = Protocol.simulate_request ~id:(Json.Int 1) tiny_job in
      let r1 = Client.with_unix sock (fun fd -> Client.request fd req) in
      let r2 = Client.with_unix sock (fun fd -> Client.request fd req) in
      let j1 = Json.of_string r1 and j2 = Json.of_string r2 in
      Alcotest.(check string) "cold ok" "ok" (Protocol.response_status j1);
      Alcotest.(check string) "warm ok" "ok" (Protocol.response_status j2);
      Alcotest.(check bool) "cold not cached" false (Protocol.response_cached j1);
      Alcotest.(check bool) "warm cached" true (Protocol.response_cached j2);
      (match (Protocol.response_payload_raw r1, Protocol.response_payload_raw r2)
       with
      | Some p1, Some p2 ->
        Alcotest.(check string)
          "payload bytes identical with observability on" p1 p2
      | _ -> Alcotest.fail "both responses must carry raw payloads");
      (* --- metrics: hit/miss counts, latency split and queue wait --- *)
      (* Each answer is counted as a hit or a miss before it is written, so
         a stats request sent once both answers are in finds both counted. *)
      let stats = stats_of sock in
      Alcotest.(check int) "stats: one hit" 1
        (stats_int stats [ "metrics"; "counters"; "phloemd_cache_hits" ]);
      Alcotest.(check int) "stats: one miss" 1
        (stats_int stats [ "metrics"; "counters"; "phloemd_cache_misses" ]);
      (* The daemon writes each response before it records that request's
         respond span and then its latency observation, so wait (bounded)
         until both requests have made that last record. *)
      let latency_count k =
        Stats.hist_count
          (List.assoc k (Metrics.snapshot (Obs.metrics obs)).Metrics.sn_hists)
      in
      let deadline = Unix.gettimeofday () +. 5.0 in
      let rec settle () =
        if
          latency_count "phloemd_request_latency_hit_s" < 1
          || latency_count "phloemd_request_latency_miss_s" < 1
        then
          if Unix.gettimeofday () > deadline then
            Alcotest.fail "requests not fully recorded within 5 s"
          else (
            Thread.yield ();
            settle ())
      in
      settle ();
      let snap = Metrics.snapshot (Obs.metrics obs) in
      let counter k = List.assoc k snap.Metrics.sn_counters in
      (* the two simulate requests and the stats request *)
      Alcotest.(check int) "requests counted" 3 (counter "phloemd_requests");
      Alcotest.(check int) "one hit" 1 (counter "phloemd_cache_hits");
      Alcotest.(check int) "one miss" 1 (counter "phloemd_cache_misses");
      let hist k = List.assoc k snap.Metrics.sn_hists in
      let hit_h = hist "phloemd_request_latency_hit_s"
      and miss_h = hist "phloemd_request_latency_miss_s"
      and wait_h = hist "phloemd_queue_wait_s" in
      Alcotest.(check int) "hit histogram populated" 1 (Stats.hist_count hit_h);
      Alcotest.(check int) "miss histogram populated" 1
        (Stats.hist_count miss_h);
      Alcotest.(check bool) "queue wait populated" true
        (Stats.hist_count wait_h >= 1);
      Alcotest.(check bool) "hit p50 < miss p50" true
        (Stats.percentile_hist 0.5 hit_h < Stats.percentile_hist 0.5 miss_h);
      (* --- spans: ordering, nesting, distinct tracks --- *)
      let spans = Obs.spans obs in
      let find trace name =
        match
          List.find_opt
            (fun s -> s.Metrics.sp_trace = trace && s.Metrics.sp_name = name)
            spans
        with
        | Some s -> s
        | None -> Alcotest.failf "missing span %s in trace %d" name trace
      in
      (* the cold request is trace 1, the warm one trace 2 *)
      let parse = find 1 "parse" in
      let lookup = find 1 "cache-lookup" in
      let wait = find 1 "queue-wait" in
      let execute = find 1 "execute" in
      let compile = find 1 "compile" in
      let respond = find 1 "respond" in
      let ordered a b = a.Metrics.sp_stop <= b.Metrics.sp_start +. 1e-9 in
      Alcotest.(check bool) "parse before lookup" true (ordered parse lookup);
      Alcotest.(check bool) "lookup before queue wait" true
        (lookup.Metrics.sp_start <= wait.Metrics.sp_start +. 1e-9);
      Alcotest.(check bool) "queue wait before execute" true
        (ordered wait execute);
      Alcotest.(check bool) "execute before respond" true
        (ordered execute respond);
      Alcotest.(check bool) "compile nested in execute" true
        (compile.Metrics.sp_start >= execute.Metrics.sp_start -. 1e-9
        && compile.Metrics.sp_stop <= execute.Metrics.sp_stop +. 1e-9);
      let starts_with pre s =
        String.length s >= String.length pre
        && String.sub s 0 (String.length pre) = pre
      in
      Alcotest.(check bool) "parse on a reader track" true
        (starts_with "reader-" parse.Metrics.sp_track);
      Alcotest.(check string) "queue wait on the queue track" "queue"
        wait.Metrics.sp_track;
      Alcotest.(check bool) "no dispatch span" false
        (List.exists (fun s -> s.Metrics.sp_name = "dispatch") spans);
      (* the worker that ran the job answers it, on a domain of its own *)
      Alcotest.(check string) "cold respond on the execute track"
        execute.Metrics.sp_track respond.Metrics.sp_track;
      (match Scanf.sscanf_opt execute.Metrics.sp_track "worker-%d%!" Fun.id with
      | Some d ->
        Alcotest.(check bool) "worker domain is not the test's domain" true
          (d <> (Domain.self () :> int))
      | None ->
        Alcotest.failf "execute on %s, not a worker track"
          execute.Metrics.sp_track);
      (* the warm request never leaves its reader thread *)
      let warm_respond = find 2 "respond" in
      Alcotest.(check bool) "warm respond on the reader track" true
        (starts_with "reader-" warm_respond.Metrics.sp_track);
      Alcotest.(check bool) "warm trace has no execute" true
        (not
           (List.exists
              (fun s -> s.Metrics.sp_trace = 2 && s.Metrics.sp_name = "execute")
              spans));
      (* --- exports parse and agree --- *)
      (match Obs.trace_json obs with
      | Json.Obj kvs -> (
        match List.assoc_opt "traceEvents" kvs with
        | Some (Json.List evs) ->
          Alcotest.(check bool) "trace export has events" true
            (List.length evs > List.length spans)
        | _ -> Alcotest.fail "traceEvents must be a list")
      | _ -> Alcotest.fail "trace export must be an object");
      (* the extended stats response carries the metrics section *)
      let stats =
        Client.with_unix sock (fun fd ->
            Client.request fd (Protocol.plain_request ~id:(Json.Int 3) "stats"))
      in
      match Protocol.response_payload_raw stats with
      | None -> Alcotest.fail "stats response must carry a payload"
      | Some payload -> (
        let sj = Json.of_string payload in
        (match Json.member "metrics" sj with
        | Some (Json.Obj _) -> ()
        | _ -> Alcotest.fail "stats payload needs a metrics section");
        match Json.member "scheduler" sj with
        | Some sched -> (
          match
            Option.bind
              (Json.member "queue_wait_total_s" sched)
              Json.to_float_opt
          with
          | Some w -> Alcotest.(check bool) "queue wait in stats" true (w >= 0.0)
          | None -> Alcotest.fail "scheduler stats need queue_wait_total_s")
        | None -> Alcotest.fail "stats payload needs a scheduler section"))

(* about 2 s on a 2-vCPU host; tiny_job takes a few tens of ms *)
let long_job =
  { Protocol.default_job with Protocol.j_input = "USA-road-d-USA"; j_scale = 1.5 }

(* Send [long_job] on [fd] and return once a worker has taken it. *)
let start_long_job sock fd =
  Client.send_line fd (Protocol.simulate_request ~id:(Json.Int 1) long_job);
  let deadline = Unix.gettimeofday () +. 5.0 in
  while stats_int (stats_of sock) [ "scheduler"; "dispatched" ] < 1 do
    if Unix.gettimeofday () > deadline then
      Alcotest.fail "long job not taken within 5 s";
    Thread.delay 0.001
  done

(* Two workers: a short cold job submitted while a long one runs is taken
   by the idle worker and answered before the long one finishes. *)
let test_e2e_cold_jobs_independent () =
  if Domain.recommended_domain_count () < 2 then
    Alcotest.skip ();
  with_server ~jobs:2 (fun sock _server ->
      Pipette.Sim.clear_caches ();
      Client.with_unix sock (fun fd_a ->
          start_long_job sock fd_a;
          let b =
            Client.with_unix sock (fun fd_b ->
                Client.request fd_b
                  (Protocol.simulate_request ~id:(Json.Int 2) tiny_job))
          in
          let a_ready =
            match Unix.select [ fd_a ] [] [] 0.0 with
            | [], _, _ -> false
            | _ -> true
          in
          Alcotest.(check string) "short job ok" "ok"
            (Protocol.response_status (Json.of_string b));
          Alcotest.(check bool) "short job answered while the long one runs"
            false a_ready;
          Alcotest.(check string) "long job ok" "ok"
            (Protocol.response_status (Json.of_string (Client.recv_line fd_a)))))

(* Two workers: a second client asks for the job the first one's request is
   running. The second worker waits for that run instead of repeating it,
   so both clients get the same uncached bytes from one execution. *)
let test_e2e_identical_misses_run_once () =
  if Domain.recommended_domain_count () < 2 then
    Alcotest.skip ();
  let obs = Obs.create () in
  with_server ~jobs:2 ~obs (fun sock _server ->
      Pipette.Sim.clear_caches ();
      Client.with_unix sock (fun fd_a ->
          start_long_job sock fd_a;
          let b =
            Client.with_unix sock (fun fd_b ->
                Client.request fd_b
                  (Protocol.simulate_request ~id:(Json.Int 2) long_job))
          in
          let a = Client.recv_line fd_a in
          List.iter
            (fun (name, r) ->
              let j = Json.of_string r in
              Alcotest.(check string) (name ^ " ok") "ok"
                (Protocol.response_status j);
              Alcotest.(check bool) (name ^ " not cached") false
                (Protocol.response_cached j))
            [ ("first", a); ("second", b) ];
          (match
             (Protocol.response_payload_raw a, Protocol.response_payload_raw b)
           with
          | Some pa, Some pb -> Alcotest.(check string) "same payload bytes" pa pb
          | _ -> Alcotest.fail "both responses must carry raw payloads");
          let executes =
            List.filter (fun s -> s.Metrics.sp_name = "execute") (Obs.spans obs)
          in
          Alcotest.(check int) "one execution for both" 1 (List.length executes);
          let stats = stats_of sock in
          Alcotest.(check int) "both dispatched" 2
            (stats_int stats [ "scheduler"; "dispatched" ]);
          Alcotest.(check int) "both result-cache misses" 2
            (stats_int stats [ "result_cache"; "misses" ])))

(* One worker: two more requests for the job the first one's request is
   running arrive while it runs and queue behind it. The worker that takes
   them finds the landed payload instead of running the job again, so all
   three get the same uncached bytes from one execution. *)
let test_e2e_queued_duplicates_run_once () =
  let obs = Obs.create () in
  with_server ~jobs:1 ~obs (fun sock _server ->
      Pipette.Sim.clear_caches ();
      Client.with_unix sock (fun fd_a ->
          start_long_job sock fd_a;
          let again id fd =
            Client.send_line fd (Protocol.simulate_request ~id:(Json.Int id) long_job)
          in
          Client.with_unix sock (fun fd_b ->
              Client.with_unix sock (fun fd_c ->
                  again 2 fd_b;
                  again 3 fd_c;
                  let answers =
                    List.map (fun fd -> Client.recv_line fd) [ fd_a; fd_b; fd_c ]
                  in
                  List.iteri
                    (fun i r ->
                      let j = Json.of_string r in
                      Alcotest.(check string) (Printf.sprintf "answer %d ok" i) "ok"
                        (Protocol.response_status j);
                      Alcotest.(check bool) (Printf.sprintf "answer %d not cached" i)
                        false (Protocol.response_cached j))
                    answers;
                  (match List.map Protocol.response_payload_raw answers with
                  | [ Some pa; Some pb; Some pc ] ->
                    Alcotest.(check string) "second payload bytes" pa pb;
                    Alcotest.(check string) "third payload bytes" pa pc
                  | _ -> Alcotest.fail "every response must carry a raw payload");
                  let executes =
                    List.filter (fun s -> s.Metrics.sp_name = "execute") (Obs.spans obs)
                  in
                  Alcotest.(check int) "one execution for all three" 1
                    (List.length executes);
                  let stats = stats_of sock in
                  Alcotest.(check int) "all three dispatched" 3
                    (stats_int stats [ "scheduler"; "dispatched" ]);
                  Alcotest.(check int) "three result-cache misses" 3
                    (stats_int stats [ "result_cache"; "misses" ])))))

(* The response line to [req] sent on a fresh connection, or [None] when it
   has not come within [timeout] seconds; and the seconds it took. *)
let timed_request sock req ~timeout =
  Client.with_unix sock (fun fd ->
      let t0 = Unix.gettimeofday () in
      Client.send_line fd req;
      match Unix.select [ fd ] [] [] timeout with
      | [], _, _ -> (None, timeout)
      | _ ->
        let r = Client.recv_line fd in
        (Some r, Unix.gettimeofday () -. t0))

(* phloemd --jobs 1. Client A sends a cold job and then 200k pings, and
   never reads: its socket fills, so the daemon's reader thread blocks
   writing A's pongs, and the worker that finishes A's job then waits to
   write A's answer. The send timeout drops A, so client B's cold job, sent
   meanwhile, is answered within the timeout (or A's run time, if longer)
   plus B's own run time, both measured first on a free daemon, and a
   second of slack; a new client's ping is answered, and the stats count
   one dropped client. *)
let test_e2e_client_stops_reading () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* A's job runs long enough for A's pongs to fill its socket first *)
  let a_job = { long_job with Protocol.j_scale = 1.0 } in
  let b_job = { long_job with Protocol.j_scale = 0.05 } in
  let run_time job =
    with_server (fun sock _server ->
        match timed_request sock (Protocol.simulate_request job) ~timeout:30.0 with
        | Some _, t -> t
        | None, _ -> Alcotest.fail "job not answered on a free daemon")
  in
  Pipette.Sim.clear_caches ();
  let a_run = run_time a_job and b_run = run_time b_job in
  Pipette.Sim.clear_caches ();
  with_server (fun sock _server ->
      let fd_a = Client.connect_unix sock in
      Client.send_line fd_a (Protocol.simulate_request ~id:(Json.Int 1) a_job);
      let pinger =
        Thread.create
          (fun () ->
            let ping = "{\"kind\":\"ping\"}\n" in
            let pings =
              Bytes.of_string (String.concat "" (List.init 200_000 (fun _ -> ping)))
            in
            let n = Bytes.length pings in
            let rec wloop off =
              if off < n then wloop (off + Unix.write fd_a pings off (n - off))
            in
            try wloop 0 with Unix.Unix_error _ -> ())
          ()
      in
      Fun.protect
        ~finally:(fun () ->
          (* at a daemon that never drops A this unblocks both A's writer
             and the daemon's write to A, so the server can stop *)
          (try Unix.shutdown fd_a Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
          Thread.join pinger;
          Unix.close fd_a)
        (fun () ->
          let bound = Float.max Server.send_timeout a_run +. b_run +. 1.0 in
          match
            timed_request sock (Protocol.simulate_request ~id:(Json.Int 2) b_job)
              ~timeout:bound
          with
          | None, _ -> Alcotest.failf "B not answered within %.2f s" bound
          | Some r, t ->
            Alcotest.(check string) "B's job ok" "ok"
              (Protocol.response_status (Json.of_string r));
            Alcotest.(check bool)
              (Printf.sprintf "B answered in %.2f s, within %.2f s" t bound)
              true (t <= bound);
            let pong, _ =
              timed_request sock (Protocol.plain_request ~id:(Json.Int 3) "ping")
                ~timeout:5.0
            in
            Alcotest.(check (option string)) "a new client's ping answered"
              (Some "ok")
              (Option.map (fun r -> Protocol.response_status (Json.of_string r)) pong);
            (* the drop comes [send_timeout] after A's socket filled: before
               B's answer when A's job was still running then, else after *)
            let deadline = Unix.gettimeofday () +. Server.send_timeout +. 5.0 in
            while stats_int (stats_of sock) [ "dropped_clients" ] < 1 do
              if Unix.gettimeofday () > deadline then
                Alcotest.fail "A not dropped within the send timeout";
              Thread.delay 0.01
            done;
            Alcotest.(check int) "one dropped client" 1
              (stats_int (stats_of sock) [ "dropped_clients" ])))

(* Observability on: a line rejected before parsing counts in the stats'
   requests and errors and in the metrics' phloemd_requests and
   phloemd_errors alike, because both read the same counters. *)
let test_e2e_counters_agree () =
  let obs = Obs.create () in
  with_server ~max_request:128 ~obs (fun sock _server ->
      Client.with_unix sock (fun fd ->
          let raw = Bytes.of_string (String.make 512 '{') in
          let n = Bytes.length raw in
          let rec wloop off =
            if off < n then wloop (off + Unix.write fd raw off (n - off))
          in
          wloop 0;
          ignore (Client.recv_line fd));
      let stats = stats_of sock in
      let int = stats_int stats in
      Alcotest.(check int) "requests" 2 (int [ "requests" ]);
      Alcotest.(check int) "metrics requests equal stats requests"
        (int [ "requests" ])
        (int [ "metrics"; "counters"; "phloemd_requests" ]);
      Alcotest.(check int) "metrics errors equal stats errors"
        (int [ "errors" ])
        (int [ "metrics"; "counters"; "phloemd_errors" ]))

(* A client that sends a cold job and hangs up before the answer: the
   daemon's write to it must fail quietly (EPIPE, with SIGPIPE ignored as
   phloemd does) and reach no one else. The job still runs and is cached,
   and a second client, connected while it runs and so likely to be given
   the vanished client's descriptor number, gets its own answers only. The
   daemon then stops on request. *)
let test_e2e_client_vanishes () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  with_server (fun sock server ->
      Pipette.Sim.clear_caches ();
      let job id = Protocol.simulate_request ~id:(Json.Int id) tiny_job in
      let fd_a = Client.connect_unix sock in
      Client.send_line fd_a (job 1);
      Unix.close fd_a;
      Client.with_unix sock (fun fd_b ->
          let id_of j = Json.member "id" j in
          let pong = Json.of_string (Client.request fd_b (Protocol.plain_request ~id:(Json.Int 2) "ping")) in
          Alcotest.(check bool) "B's ping answered" true
            (Protocol.response_status pong = "ok" && id_of pong = Some (Json.Int 2));
          let deadline = Unix.gettimeofday () +. 10.0 in
          while stats_int (stats_of sock) [ "result_cache"; "entries" ] < 1 do
            if Unix.gettimeofday () > deadline then
              Alcotest.fail "the vanished client's job was not cached within 10 s";
            Thread.delay 0.005
          done;
          let r = Client.request fd_b (job 3) in
          let j = Json.of_string r in
          Alcotest.(check bool) "B gets its own answer" true (id_of j = Some (Json.Int 3));
          Alcotest.(check string) "job ok" "ok" (Protocol.response_status j);
          Alcotest.(check bool) "served from the cache" true (Protocol.response_cached j);
          match Protocol.response_payload_raw r with
          | Some p -> (
            match Json.member "valid" (Json.of_string p) with
            | Some (Json.Bool v) -> Alcotest.(check bool) "result valid" true v
            | _ -> Alcotest.fail "payload needs a valid field")
          | None -> Alcotest.fail "the cached response must carry a payload");
      let resp =
        Client.with_unix sock (fun fd ->
            Client.request fd (Protocol.plain_request ~id:(Json.Int 4) "shutdown"))
      in
      Alcotest.(check string) "shutdown acknowledged" "ok"
        (Protocol.response_status (Json.of_string resp));
      let rec wait n =
        if Server.stopped server then ()
        else if n = 0 then Alcotest.fail "server did not stop"
        else (
          Thread.delay 0.001;
          wait (n - 1))
      in
      wait 5000)

let test_e2e_shutdown_request () =
  with_server (fun sock server ->
      let resp =
        Client.with_unix sock (fun fd ->
            Client.request fd (Protocol.plain_request ~id:(Json.Int 1) "shutdown"))
      in
      Alcotest.(check string) "shutdown acknowledged" "ok"
        (Protocol.response_status (Json.of_string resp));
      (* stop is already underway; run unwinds without further prompting *)
      let rec wait n =
        if Server.stopped server then ()
        else if n = 0 then Alcotest.fail "server did not stop"
        else (
          Thread.yield ();
          wait (n - 1))
      in
      wait 1000)

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "rejects" `Quick test_parse_rejects;
          Alcotest.test_case "oversized" `Quick test_parse_oversized;
          Alcotest.test_case "simulate round-trip" `Quick
            test_parse_simulate_roundtrip;
          Alcotest.test_case "id sanitization" `Quick test_parse_sanitizes_id;
          Alcotest.test_case "raw payload extraction" `Quick
            test_envelope_payload_raw;
          Alcotest.test_case "statuses" `Quick test_envelope_statuses;
          Alcotest.test_case "content key" `Quick test_content_key;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "round-robin fairness" `Quick
            test_scheduler_fairness;
          Alcotest.test_case "shed at the bound" `Quick test_scheduler_shed;
          Alcotest.test_case "queue wait accounting" `Quick
            test_scheduler_queue_wait;
          Alcotest.test_case "close drains" `Quick test_scheduler_close_drains;
        ] );
      ( "server",
        [
          Alcotest.test_case "worker domains stay within 127" `Quick
            test_worker_domains;
        ] );
      ( "client",
        [
          Alcotest.test_case "recv_line keeps pipelined lines" `Quick
            test_client_recv_line;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "cache hit is byte-identical" `Quick
            test_e2e_cache_hit_byte_identical;
          Alcotest.test_case "rejects and shed-load" `Quick
            test_e2e_rejects_and_shed;
          Alcotest.test_case "oversized handling" `Quick test_e2e_oversized;
          Alcotest.test_case "observability spans and latency split" `Quick
            test_e2e_observability;
          Alcotest.test_case "cold jobs do not wait for each other" `Quick
            test_e2e_cold_jobs_independent;
          Alcotest.test_case "identical cold misses run once" `Quick
            test_e2e_identical_misses_run_once;
          Alcotest.test_case "queued identical misses run once" `Quick
            test_e2e_queued_duplicates_run_once;
          Alcotest.test_case "client that stops reading is dropped" `Quick
            test_e2e_client_stops_reading;
          Alcotest.test_case "stats and metrics counters agree" `Quick
            test_e2e_counters_agree;
          Alcotest.test_case "client vanishes mid-response" `Quick
            test_e2e_client_vanishes;
          Alcotest.test_case "shutdown request" `Quick test_e2e_shutdown_request;
        ] );
    ]
