(* The `serve` workload: the real phloemd binary in its own process, with
   --jobs [jobs] and observability off, restarted cold for every round. A
   single-process closed-loop generator keeps [jobs] connections, each
   waiting for its reply as `simulate --remote` does, and sends a seeded
   Zipf stream over a catalogue of simulate jobs (bench x paper input x
   variant x stages). The catalogue fits the 256-entry result cache but
   overflows a 64-entry simulator memo cache, so hits never reach the
   simulator while misses compile, trace and replay. Jobs name their
   inputs: the seed chooses the request stream, not the data. *)

module P = Phloem_serve.Protocol
module C = Phloem_serve.Client
module Json = Pipette.Telemetry.Json

let job_scale = 0.1
let stream_length = 2000

let catalogue ~scale =
  let graph_inputs = [ "USA-road-d-NY"; "hugetrace-00000"; "Freescale1"; "USA-road-d-USA" ] in
  let matrix_inputs = [ "email-Enron"; "wiki-Vote" ] in
  let jobs bench input =
    let j variant stages =
      { P.default_job with
        P.j_bench = bench; j_input = input; j_scale = scale; j_variant = variant;
        j_stages = stages }
    in
    [ j "serial" 4; j "data-parallel" 4; j "manual" 4; j "phloem" 2; j "phloem" 3; j "phloem" 4 ]
  in
  Array.of_list
    (List.concat_map (fun b -> List.concat_map (jobs b) graph_inputs) Inputs.graph_kernels
    @ List.concat_map (jobs "spmm") matrix_inputs)

(* Zipf(1) popularity over a seeded permutation of the catalogue. *)
let stream ~seed ~keys ~length =
  let rng = Phloem_util.Prng.create seed in
  let order = Array.init keys Fun.id in
  Phloem_util.Prng.shuffle rng order;
  let cum = Array.make keys 0.0 in
  let total = ref 0.0 in
  Array.iteri
    (fun r _ ->
      total := !total +. (1.0 /. float_of_int (r + 1));
      cum.(r) <- !total)
    cum;
  let rec first_above u lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if cum.(mid) > u then first_above u lo mid else first_above u (mid + 1) hi
  in
  Array.init length (fun _ ->
      order.(first_above (Phloem_util.Prng.float rng !total) 0 (keys - 1)))

(* --- the daemon ---------------------------------------------------------- *)

type daemon = { pid : int; socket : string }

let ping socket =
  try
    C.with_unix socket (fun fd ->
        P.response_payload_raw (C.request fd (P.plain_request "ping")) = Some "\"pong\"")
  with Unix.Unix_error _ | End_of_file | Sys_error _ -> false

(* Start phloemd and wait for its first pong; returns the set-up time. *)
let spawn ~exe ~dir ~jobs ~tag ~extra =
  let socket = Filename.concat dir (Printf.sprintf "phloemd-%d-%s.sock" (Unix.getpid ()) tag) in
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let log =
    Unix.openfile (Filename.concat dir "phloemd.log") [ Unix.O_WRONLY; O_CREAT; O_APPEND ] 0o644
  in
  let args =
    [ exe; "--socket"; socket; "--jobs"; string_of_int jobs; "--sim-cache"; "64";
      "--log-level"; "warn" ]
    @ extra
  in
  let t0 = Clock.now () in
  let pid = Unix.create_process exe (Array.of_list args) Unix.stdin log log in
  Unix.close log;
  let rec wait () =
    if ping socket then Clock.now () -. t0
    else begin
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> failwith "phloemd exited before answering a ping");
      if Clock.now () -. t0 > 30.0 then begin
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        failwith "phloemd did not answer a ping within 30 s"
      end;
      Unix.sleepf 0.001;
      wait ()
    end
  in
  let setup = wait () in
  ({ pid; socket }, setup)

let request d line = C.with_unix d.socket (fun fd -> C.request fd line)

let stop d =
  (try ignore (request d (P.plain_request "shutdown"))
   with Unix.Unix_error _ | End_of_file | Sys_error _ -> Unix.kill d.pid Sys.sigterm);
  ignore (Unix.waitpid [] d.pid)

(* --- the closed-loop generator ------------------------------------------ *)

type kind = Hit | Miss | Fail

type sample = { s_key : int; s_kind : kind; s_latency : float }

(* Response prefixes, from the protocol's own envelope. *)
let prefix ~cached =
  let s = P.ok_response ~id:Json.Null ~cached "" in
  String.sub s 0 (String.length s - 1)

let hit_prefix = prefix ~cached:true
let miss_prefix = prefix ~cached:false

(* Send [stream] over [clients] connections, each waiting for its reply.
   The timed path classifies each response by its envelope prefix and
   compares payload bytes with the first cold payload of the same key; it
   parses no JSON. [cold] collects the cold payloads. Returns the samples
   and the number of hits whose bytes differ from the cold bytes. *)
let drive ~socket ~clients ~(lines : string array) ~(stream : int array) ~cold =
  let n = Array.length stream in
  let next = Atomic.make 0 in
  let samples = Array.make n { s_key = 0; s_kind = Fail; s_latency = 0.0 } in
  let lock = Mutex.create () in
  let mismatches = ref 0 and pending = ref [] in
  let keep k ~hit payload =
    Mutex.lock lock;
    (match Hashtbl.find_opt cold k with
    | Some p -> if not (String.equal p payload) then incr mismatches
    | None -> if hit then pending := (k, payload) :: !pending else Hashtbl.add cold k payload);
    Mutex.unlock lock
  in
  let client () =
    try
      C.with_unix socket (fun fd ->
          let rec loop () =
            let i = Atomic.fetch_and_add next 1 in
            if i < n then begin
              let k = stream.(i) in
              let t0 = Clock.now () in
              let resp = C.request fd lines.(k) in
              let latency = Clock.now () -. t0 in
              let kind =
                if String.starts_with ~prefix:hit_prefix resp then Hit
                else if String.starts_with ~prefix:miss_prefix resp then Miss
                else Fail
              in
              (match (kind, P.response_payload_raw resp) with
              | (Hit | Miss), Some payload -> keep k ~hit:(kind = Hit) payload
              | _ -> ());
              samples.(i) <- { s_key = k; s_kind = kind; s_latency = latency };
              loop ()
            end
          in
          loop ())
    with e -> Printf.eprintf "serve: client stopped: %s\n%!" (Printexc.to_string e)
  in
  List.iter Thread.join (List.init clients (fun _ -> Thread.create client ()));
  (* hits that overtook the cold response of their key *)
  List.iter
    (fun (k, p) ->
      match Hashtbl.find_opt cold k with
      | Some c when String.equal c p -> ()
      | _ -> incr mismatches)
    !pending;
  (samples, !mismatches)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

let int_field j k = match Json.member k j with Some (Json.Int v) -> v | _ -> 0

type round = {
  rd_setup : float;
  rd_wall : float;
  rd_samples : sample array;
  rd_cycles : int;  (* simulated by the daemon for the round's misses *)
  rd_gmean : float;  (* over every phloem-variant key of the catalogue *)
  rd_rss : float;  (* daemon VmHWM *)
  rd_attempted : int;
  rd_failed : int;
  rd_stats : Json.t option;  (* traced rounds: the final stats payload *)
  rd_trace : string option;  (* traced rounds: phloemd's Chrome trace file *)
}

let count kind samples =
  Array.fold_left (fun a s -> if s.s_kind = kind then a + 1 else a) 0 samples

(* One cold daemon serving the whole stream. Untimed afterwards: the cold
   payloads are checked for "valid":true and their cycles counted, and an
   audit pass fetches every phloem-variant key for the speedup. *)
let round ~exe ~dir ~jobs ~catalogue ~lines ~stream ~traced ~tag =
  let files =
    if traced then
      Some (Filename.concat dir "phloemd-metrics.json", Filename.concat dir "phloemd-trace.json")
    else None
  in
  let extra =
    match files with
    | Some (m, t) -> [ "--metrics-out"; m; "--trace-out"; t; "--flush-interval"; "3600" ]
    | None -> []
  in
  let d, setup = spawn ~exe ~dir ~jobs ~tag ~extra in
  let cold = Hashtbl.create 256 in
  Fun.protect ~finally:(fun () -> stop d) @@ fun () ->
    let t0 = Clock.now () in
    let samples, mismatched = drive ~socket:d.socket ~clients:jobs ~lines ~stream ~cold in
    let wall = Clock.now () -. t0 in
    let rss = Common.peak_rss_mb ~pid:(string_of_int d.pid) () in
    let stats =
      if not traced then None
      else
        Option.map Json.of_string
          (P.response_payload_raw (request d (P.plain_request "stats")))
    in
    let invalid =
      Hashtbl.fold (fun _ p a -> if contains ~sub:"\"valid\":true" p then a else a + 1) cold 0
    in
    let misses = Array.make (Array.length catalogue) 0 in
    Array.iter (fun s -> if s.s_kind = Miss then misses.(s.s_key) <- misses.(s.s_key) + 1) samples;
    let cycles =
      Hashtbl.fold
        (fun k p a ->
          let j = Json.of_string p in
          a + (misses.(k) * (int_field j "cycles" + int_field j "serial_cycles")))
        cold 0
    in
    let audited = ref 0 and audit_failed = ref 0 and speedups = ref [] in
    Array.iteri
      (fun k (job : P.job) ->
        if job.P.j_variant = "phloem" then begin
          incr audited;
          match P.response_payload_raw (request d lines.(k)) with
          | Some p ->
            let j = Json.of_string p in
            (match Hashtbl.find_opt cold k with
            | Some c when not (String.equal c p) -> incr audit_failed
            | _ -> ());
            if Json.member "valid" j <> Some (Json.Bool true) then incr audit_failed;
            speedups := Option.value ~default:0.0 (Option.bind (Json.member "speedup" j) Json.to_float_opt) :: !speedups
          | None -> incr audit_failed
        end)
      catalogue;
    let fails = count Fail samples in
    if fails + mismatched + invalid + !audit_failed > 0 then
      Printf.eprintf
        "serve: %d failed requests, %d hits differing from the cold bytes, %d invalid cold \
         payloads, %d failed audits\n%!"
        fails mismatched invalid !audit_failed;
    let gmean =
      if List.for_all (fun s -> s > 0.0) !speedups && !speedups <> [] then
        Phloem_util.Stats.gmean !speedups
      else 0.0
    in
    {
      rd_setup = setup;
      rd_wall = wall;
      rd_samples = samples;
      rd_cycles = cycles;
      rd_gmean = gmean;
      rd_rss = rss;
      rd_attempted = Array.length samples + Hashtbl.length cold + !audited;
      rd_failed = fails + mismatched + invalid + !audit_failed;
      rd_stats = stats;
      rd_trace = Option.map snd files;
    }

(* phloemd's own (phloemd_cache_hits, phloemd_cache_misses), from a traced
   round's final stats. *)
let daemon_counts r =
  let counters =
    Option.bind r.rd_stats (fun j -> Option.bind (Json.member "metrics" j) (Json.member "counters"))
  in
  Option.map
    (fun c -> (int_field c "phloemd_cache_hits", int_field c "phloemd_cache_misses"))
    counters

let latencies kind rounds =
  List.concat_map
    (fun r ->
      Array.fold_left
        (fun a s -> if kind = None || Some s.s_kind = kind then s.s_latency :: a else a)
        [] r.rd_samples)
    rounds

let ms p l = if l = [] then 0.0 else 1000.0 *. Common.percentile p l

let end_to_end rounds =
  let open Common in
  let all = latencies None rounds in
  [
    metric "setup_s" "s" (median (List.map (fun r -> r.rd_setup) rounds));
    metric "wall_s" "s" (median (List.map (fun r -> r.rd_wall) rounds));
    metric "items_per_s" "1/s"
      (median (List.map (fun r -> float_of_int (Array.length r.rd_samples) /. r.rd_wall) rounds));
    metric "item_p50_ms" "ms" (ms 0.50 all);
    (* p99: a run has thousands of requests *)
    metric "item_tail_ms" "ms" (ms 0.99 all);
    metric "sim_cycles_per_s" "cycles/s"
      (median (List.map (fun r -> float_of_int r.rd_cycles /. r.rd_wall) rounds));
    metric "sim_gmean_speedup" "x" (List.hd rounds).rd_gmean;
    metric "peak_rss_mb" "MB" (median (List.map (fun r -> r.rd_rss) rounds));
  ]

(* The hit / miss split of the untraced rounds. *)
let split rounds =
  let hits = latencies (Some Hit) rounds and misses = latencies (Some Miss) rounds in
  let all = latencies None rounds in
  [
    Printf.sprintf
      "serve: %d hits, %d misses; hit p50 %.3f ms, p99 %.3f ms; miss p50 %.3f ms, p90 %.3f \
       ms; all p95 %.3f ms, p99 %.3f ms"
      (List.length hits) (List.length misses) (ms 0.50 hits) (ms 0.99 hits) (ms 0.50 misses)
      (ms 0.90 misses) (ms 0.95 all) (ms 0.99 all);
  ]

(* phloemd's Chrome trace file back into spans, nested per track. *)
let daemon_spans file =
  let events =
    match Json.member "traceEvents" (Json.of_file file) with Some (Json.List l) -> l | _ -> []
  in
  let str k j = match Json.member k j with Some (Json.Str s) -> s | _ -> "" in
  let tracks =
    List.filter_map
      (fun e ->
        if str "ph" e = "M" && str "name" e = "thread_name" then
          Option.map (fun a -> (int_field e "tid", str "name" a)) (Json.member "args" e)
        else None)
      events
  in
  Span.nest
    (List.filter_map
       (fun e ->
         if str "ph" e <> "X" then None
         else
           let ts = float_of_int (int_field e "ts") *. 1e-6 in
           Some
             ( Option.value ~default:"?" (List.assoc_opt (int_field e "tid") tracks),
               str "name" e,
               ts,
               ts +. (float_of_int (int_field e "dur") *. 1e-6) ))
       events)

let per_layer ~traced ~untraced =
  let open Common in
  let rounds = List.length traced in
  let per x = x /. float_of_int rounds in
  let ls =
    Span.sum_layers
      (List.map (fun r -> Span.layers (Option.fold ~none:[] ~some:daemon_spans r.rd_trace)) traced)
  in
  let l = Span.layer ls in
  let path j keys = List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some j) keys in
  let num j keys = Option.value ~default:0.0 (Option.bind (path j keys) Json.to_float_opt) in
  let stats keys = List.map (fun r -> Option.fold ~none:0.0 ~some:(fun j -> num j keys) r.rd_stats) traced in
  let sum_stats keys = List.fold_left ( +. ) 0.0 (stats keys) in
  (* daemon span names: compile = Sim.prepare (flat), simulate = engine,
     serialize = report *)
  let layer name span = layer_metrics ~rounds name (l span) in
  let cycles = List.fold_left (fun a r -> a + r.rd_cycles) 0 traced in
  let client = List.fold_left ( +. ) 0.0 (latencies None traced) in
  let covered =
    List.fold_left (fun a (name, x) -> if name = "dispatch" then a else a +. x.Span.l_self) 0.0 ls
  in
  let median_wall rs = median (List.map (fun r -> r.rd_wall) rs) in
  let overhead = median_wall traced -. median_wall untraced in
  let rc_hits = sum_stats [ "result_cache"; "hits" ] and rc_misses = sum_stats [ "result_cache"; "misses" ] in
  let tc_hits = sum_stats [ "sim_cache"; "trace_hits" ] and tc_misses = sum_stats [ "sim_cache"; "trace_misses" ] in
  let metrics =
    layer "serve.parse" "parse" @ layer "serve.cache_lookup" "cache-lookup"
    @ layer "serve.respond" "respond"
    @ [
        metric "serve.queue_wait_p50_ms" "ms"
          (1000.0 *. median (stats [ "metrics"; "histograms"; "phloemd_queue_wait_s"; "p50" ]));
        metric "serve.queue_wait_max_ms" "ms"
          (1000.0 *. List.fold_left Float.max 0.0 (stats [ "metrics"; "histograms"; "phloemd_queue_wait_s"; "max" ]));
      ]
    @ layer "serve.dispatch" "dispatch" @ layer "serve.execute" "execute"
    @ [ metric "serve.execute.self_s" "s" (per (l "execute").Span.l_self) ]
    @ layer "flat" "compile" @ layer "trace" "trace"
    @ [ metric "trace.hit_ratio" "ratio" (ratio tc_hits (tc_hits +. tc_misses)) ]
    @ layer "engine" "simulate"
    @ [
        metric "engine.sim_cycles" "cycles" (per (float_of_int cycles));
        metric "engine.cycles_per_s" "cycles/s" (ratio (float_of_int cycles) (l "simulate").Span.l_busy);
      ]
    @ layer "report" "serialize"
    @ [
        metric "serve.result_cache.hit_ratio" "ratio" (ratio rc_hits (rc_hits +. rc_misses));
        metric "serve.result_cache.evictions" "count" (per (sum_stats [ "result_cache"; "evictions" ]));
        metric "serve.sim_cache.trace_hit_ratio" "ratio" (ratio tc_hits (tc_hits +. tc_misses));
        metric "serve.shed" "count" (per (sum_stats [ "shed" ]));
        metric "serve.errors" "count" (per (sum_stats [ "errors" ]));
        metric "coverage" "ratio" (ratio covered client);
        metric "tracing_overhead_s" "s" overhead;
      ]
  in
  let report =
    layer_report ~workload:"serve" ~rounds ~layers:ls ~coverage:(ratio covered client)
      ~tolerance:
        "daemon span self time, dispatch excluded, over summed client latency; expected \
         0.4-1.05: a hit read by a thread whose domain is running a job waits for it, and \
         socket transfer and waiting for batch-mates sit in no span"
      ~overhead
  in
  (metrics, report)

let run ~exe ~dir ~seed ~seconds ~traced ~jobs =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let catalogue = catalogue ~scale:job_scale in
  let lines = Array.map (fun j -> P.simulate_request j) catalogue in
  let stream = stream ~seed ~keys:(Array.length catalogue) ~length:stream_length in
  let go ~traced i =
    let r = round ~exe ~dir ~jobs ~catalogue ~lines ~stream ~traced ~tag:(string_of_int i) in
    (* the next round rewrites the trace file: keep this round's spans *)
    match r.rd_trace with
    | Some f ->
      let kept = Filename.concat dir (Printf.sprintf "phloemd-trace-%d.json" i) in
      Sys.rename f kept;
      { r with rd_trace = Some kept }
    | None -> r
  in
  let untraced_for = if traced then seconds /. 2.0 else seconds in
  let untraced = Common.repeat_for ~min:3 ~seconds:untraced_for (go ~traced:false) in
  let e2e = end_to_end untraced in
  let tally rs =
    List.fold_left (fun (a, f) r -> (a + r.rd_attempted, f + r.rd_failed)) (0, 0) rs
  in
  let gmean_drift rs = List.exists (fun r -> r.rd_gmean <> (List.hd untraced).rd_gmean) rs in
  if not traced then
    let attempted, failed = tally untraced in
    {
      Common.attempted = attempted + 1;
      failed = failed + Bool.to_int (gmean_drift untraced);
      e2e;
      layers = [];
      report = split untraced;
      trace = None;
    }
  else begin
    let traced_rounds = Common.repeat_for ~seconds:(seconds /. 2.0) (go ~traced:true) in
    (* the generator's hit and miss counts must equal the daemon's *)
    let disagree =
      List.filter
        (fun r -> daemon_counts r <> Some (count Hit r.rd_samples, count Miss r.rd_samples))
        traced_rounds
    in
    if disagree <> [] then Printf.eprintf "serve: generator and daemon disagree on hits/misses\n%!";
    let attempted, failed = tally (untraced @ traced_rounds) in
    let layers, report = per_layer ~traced:traced_rounds ~untraced in
    let spans =
      Option.fold ~none:[] ~some:daemon_spans (List.hd (List.rev traced_rounds)).rd_trace
    in
    {
      Common.attempted = attempted + 1 + List.length traced_rounds;
      failed =
        failed + List.length disagree + Bool.to_int (gmean_drift (untraced @ traced_rounds));
      e2e;
      layers;
      report = split untraced @ report;
      trace = Some (Span.trace_json ~process:"phloemd (serve workload)" spans);
    }
  end
