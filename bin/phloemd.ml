(* phloemd: persistent simulation-as-a-service daemon. Accepts
   compile+simulate jobs as line-delimited JSON over a Unix-domain (and
   optionally TCP) socket, executes them on worker domains (one job each
   at a time, answered as soon as it finishes), and serves repeated
   requests from a content-addressed result cache —
   determinism makes every result a pure function of its request, so a
   repeat is answered in O(lookup) with byte-identical JSON. See README
   "Running phloemd" for the protocol and DESIGN.md "Simulation as a
   service" for the cache-key derivation.

   Observability (--metrics-out / --trace-out / --slow-ms) is opt-in: any
   of these flags creates a Serve.Obs handle threaded through the server,
   and a flusher thread rewrites the output files atomically on an
   interval so a killed daemon still leaves a usable last snapshot. *)

open Cmdliner
module Serve = Phloem_serve

let serve socket tcp jobs queue_limit cache_entries sim_cache max_request
    stats_out metrics_out trace_out slow_ms flush_interval log_level =
  (match Phloem_util.Log.level_of_string log_level with
  | Some l -> Phloem_util.Log.set_level l
  | None ->
    Printf.eprintf "phloemd: unknown log level %s\n" log_level;
    exit 2);
  (* A daemon serving many distinct pipelines needs more memo room than the
     sweep default of 64. *)
  Pipette.Sim.set_cache_capacity sim_cache;
  let obs =
    if metrics_out <> None || trace_out <> None || slow_ms <> None then
      Some (Serve.Obs.create ?slow_ms ())
    else None
  in
  let opts =
    {
      Serve.Server.so_unix = Some socket;
      so_tcp = tcp;
      so_jobs = jobs;
      so_queue_limit = queue_limit;
      so_cache_entries = cache_entries;
      so_max_request = max_request;
      so_obs = obs;
    }
  in
  let server =
    try Serve.Server.create opts
    with Unix.Unix_error (e, fn, arg) ->
      Printf.eprintf "phloemd: cannot listen (%s %s: %s)\n" fn arg
        (Unix.error_message e);
      exit 1
  in
  let shutdown _ = Serve.Server.stop server in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle shutdown);
  Sys.set_signal Sys.sigint (Sys.Signal_handle shutdown);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let flush_outputs () =
    (* stats are scraped while live, so they are written atomically too *)
    (try
       Option.iter
         (fun f ->
           Serve.Obs.write_atomic f
             (Phloem_util.Json.to_string (Serve.Server.stats_json server)))
         stats_out
     with Sys_error _ -> ());
    match obs with
    | None -> ()
    | Some o ->
      (try Option.iter (Serve.Obs.write_metrics_file o) metrics_out
       with Sys_error _ -> ());
      (try Option.iter (Serve.Obs.write_trace_file o) trace_out
       with Sys_error _ -> ())
  in
  (* Periodic flusher: a crashed or SIGKILLed daemon still leaves the last
     interval's stats/metrics/trace on disk. Wakes every 0.2 s so shutdown
     isn't delayed by a long flush interval. *)
  let flusher =
    if stats_out = None && obs = None then None
    else
      Some
        (Thread.create
           (fun () ->
             let last = ref (Phloem_util.Clock.now ()) in
             while not (Serve.Server.stopped server) do
               Thread.delay 0.2;
               let now = Phloem_util.Clock.now () in
               if now -. !last >= flush_interval then begin
                 last := now;
                 flush_outputs ()
               end
             done)
           ())
  in
  Printf.printf "phloemd: listening on %s%s (jobs %d, queue limit %d, cache %d \
                 entries)\n%!"
    socket
    (match tcp with Some p -> Printf.sprintf " and 127.0.0.1:%d" p | None -> "")
    (Serve.Server.worker_domains
       ~recommended:(Domain.recommended_domain_count ())
       jobs)
    queue_limit cache_entries;
  Serve.Server.run server;
  Option.iter Thread.join flusher;
  (* Final flush after the drain so the on-disk files cover every request
     the daemon answered. *)
  flush_outputs ();
  (match stats_out with
  | Some file -> Printf.printf "phloemd: stats written to %s\n%!" file
  | None -> ());
  (match metrics_out with
  | Some file -> Printf.printf "phloemd: metrics written to %s\n%!" file
  | None -> ());
  (match trace_out with
  | Some file -> Printf.printf "phloemd: trace written to %s\n%!" file
  | None -> ());
  Printf.printf "phloemd: clean shutdown\n%!";
  0

let socket_arg =
  Arg.(
    value & opt string "phloemd.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path to listen on")

let tcp_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "tcp" ] ~docv:"PORT" ~doc:"also listen on 127.0.0.1:$(docv)")

let jobs_arg =
  Arg.(
    value
    & opt int (Phloem_util.Pool.default_jobs ())
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "worker domains executing jobs, one job each at a time (default: \
           the recommended domain count; at most that count, and at most 127)")

let queue_arg =
  Arg.(
    value & opt int 64
    & info [ "queue-limit" ] ~docv:"N"
        ~doc:
          "bound on queued jobs across all clients; requests past it get a \
           structured shed-load response (0 sheds everything)")

let cache_arg =
  Arg.(
    value & opt int 256
    & info [ "cache-entries" ] ~docv:"N"
        ~doc:"content-addressed result-cache entry bound (FIFO eviction)")

let sim_cache_arg =
  Arg.(
    value & opt int 256
    & info [ "sim-cache" ] ~docv:"N"
        ~doc:
          "capacity of the simulator's compiled-program and functional-trace \
           memo caches (Sim.set_cache_capacity)")

let max_request_arg =
  Arg.(
    value
    & opt int (1 lsl 20)
    & info [ "max-request" ] ~docv:"BYTES" ~doc:"request line size bound")

let stats_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "stats-out" ] ~docv:"FILE"
        ~doc:
          "write the stats JSON to $(docv): periodically (see \
           $(b,--flush-interval)), and finally after the shutdown drain")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "enable service metrics and write them to $(docv) periodically and \
           on shutdown; a $(b,.prom) suffix selects Prometheus text \
           exposition, anything else JSON with derived p50/p95/p99")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "enable request-span tracing and write a Chrome trace-event file \
           (chrome://tracing, Perfetto) to $(docv) periodically and on \
           shutdown")

let slow_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "slow-ms" ] ~docv:"MS"
        ~doc:
          "log a warning for any simulate request slower than $(docv) \
           milliseconds (implies metrics collection)")

let flush_arg =
  Arg.(
    value & opt float 10.0
    & info [ "flush-interval" ] ~docv:"SECONDS"
        ~doc:"interval between periodic stats/metrics/trace flushes")

let log_arg =
  Arg.(
    value & opt string "info"
    & info [ "log-level" ] ~docv:"LEVEL" ~doc:"debug | info | warn | error")

let cmd =
  Cmd.v
    (Cmd.info "phloemd" ~doc:"persistent Phloem simulation server"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Line-delimited JSON protocol: one request object per line, one \
              response object per line. Request kinds: simulate, stats, ping, \
              shutdown. Repeated simulate requests are served from a \
              content-addressed cache with byte-identical results. When the \
              bounded job queue is full, requests receive a \
              status=\"shed\" response instead of queueing unboundedly.";
           `P
             "Observability is opt-in: $(b,--metrics-out) exposes counters \
              and latency histograms (cache-hit vs cold split, queue-wait), \
              $(b,--trace-out) records per-request spans (parse, cache \
              lookup, queue wait, compile/trace/simulate, respond) \
              as a Chrome trace, and $(b,--slow-ms) logs slow requests. All \
              output files are rewritten atomically every \
              $(b,--flush-interval) seconds and after the shutdown drain.";
           `S Manpage.s_exit_status;
           `P
             "0 after a clean shutdown (SIGTERM, SIGINT, or a shutdown \
              request), draining already-accepted jobs first; 1 when the \
              socket cannot be bound; 2 on usage errors.";
         ])
    Term.(
      const serve $ socket_arg $ tcp_arg $ jobs_arg $ queue_arg $ cache_arg
      $ sim_cache_arg $ max_request_arg $ stats_arg $ metrics_arg $ trace_arg
      $ slow_arg $ flush_arg $ log_arg)

let () = exit (Cmd.eval' cmd)
