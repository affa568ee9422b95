(* phloemd's core: accept connections on a Unix-domain (and optionally
   TCP) socket, read line-delimited JSON requests, serve repeats from the
   content-addressed result cache, and hand cold jobs through a bounded
   fair scheduler to worker domains.

   Threading model: the caller's thread runs the accept loop; each
   connection gets a reader thread (cheap system threads — connections
   block on I/O, not CPU), all in the caller's domain. [run] spawns
   [jobs] worker domains (the CPU side); each takes one job at a time from
   the scheduler, runs it, and answers it the moment it finishes, so a
   long job delays neither its neighbours nor the readers. Cache hits,
   stats, pings, and shed responses are answered directly on the reader
   thread in O(lookup) — they never wait for a job. A worker that takes a
   job whose content key another worker is already running waits for that
   run and answers with its result, so concurrent identical misses run
   once.

   Failure containment: a job that deadlocks, livelocks, exhausts its
   budget, or raises for any other reason becomes a structured JSON error
   on its own connection; other jobs and the daemon itself are
   unaffected. *)

module Json = Phloem_util.Json
module Log = Phloem_util.Log
module Fifo_cache = Phloem_util.Fifo_cache
module Clock = Phloem_util.Clock
module M = Phloem_util.Metrics

type opts = {
  so_unix : string option; (* Unix-domain socket path *)
  so_tcp : int option; (* TCP port on 127.0.0.1 *)
  so_jobs : int; (* worker domains executing jobs, before the clamp *)
  so_queue_limit : int; (* scheduler bound; past it requests shed *)
  so_cache_entries : int; (* result-cache entry bound *)
  so_max_request : int; (* request line byte bound *)
  so_obs : Obs.t option; (* service metrics + request tracing; off by default *)
}

let default_opts =
  {
    so_unix = None;
    so_tcp = None;
    so_jobs = 1;
    so_queue_limit = 64;
    so_cache_entries = 256;
    so_max_request = 1 lsl 20;
    so_obs = None;
  }

type client = {
  c_id : int;
  c_fd : Unix.file_descr;
  c_wlock : Mutex.t; (* reader thread and workers both respond *)
  mutable c_open : bool;
      (* false once the reader has closed [c_fd]. Set and read under
         [c_wlock]: a response finished after its client hung up is
         dropped, not written to a later connection that was given the
         same descriptor number. *)
}

type entry = {
  en_client : client;
  en_id : Json.t; (* echoed request id *)
  en_key : string; (* content key; fills the cache on completion *)
  en_job : Protocol.job;
  en_trace : int; (* request trace id (0 when tracing is off) *)
  en_t0 : float; (* request arrival, Clock seconds (0. when tracing is off) *)
}

(* One run of a content key: [None] until the worker running it publishes
   the outcome. *)
type flight = (string, exn) result option ref

type t = {
  t_opts : opts;
  t_jobs : int; (* worker domains [run] spawns: so_jobs after the clamp *)
  t_cache : (string, string) Fifo_cache.t;
      (* content key -> payload bytes; weight = payload bytes *)
  t_sched : entry Scheduler.t;
  t_inflight : (string, flight) Hashtbl.t; (* content keys being run *)
  t_inflight_lock : Mutex.t;
  t_landed : Condition.t; (* broadcast when a run publishes its outcome *)
  t_stopped : bool Atomic.t;
  t_listeners : Unix.file_descr list;
  t_clients : (int, client) Hashtbl.t;
  t_clients_lock : Mutex.t;
  t_next_client : int Atomic.t;
  (* in [Obs.metrics] when observability is on, so stats and metrics read
     the same counts *)
  t_connections : M.counter;
  t_requests : M.counter;
  t_ok : M.counter;
  t_errors : M.counter;
  (* simulate requests answered from the result cache and from a job;
     counted before the answer is written, so a client that reads an
     answer and then asks for stats finds it counted *)
  t_hits : M.counter;
  t_misses : M.counter;
  t_shed : M.counter;
  t_started : float; (* Clock seconds *)
}

(* --- listener setup ----------------------------------------------------- *)

let unix_listener path =
  (* A stale socket file from a previous daemon would make bind fail; a
     *live* daemon still serving it is indistinguishable here, so the
     operator owns path uniqueness (CI uses mktemp -d). *)
  if Sys.file_exists path then Unix.unlink path;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  fd

let tcp_listener port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd 64;
  fd

(* OCaml 5.1 runs at most 128 domains at once (its [Max_domains]) and the
   daemon's own domain reads the sockets, so at most 127 workers fit
   beside it, even where the recommended domain count is 128 or more. *)
let max_workers = 127

let worker_domains ~recommended jobs =
  Int.max 1 (Int.min jobs (Int.min recommended max_workers))

let create (opts : opts) : t =
  if opts.so_unix = None && opts.so_tcp = None then
    invalid_arg "Serve.Server.create: need a Unix socket path or a TCP port";
  let listeners =
    (match opts.so_unix with Some p -> [ unix_listener p ] | None -> [])
    @ match opts.so_tcp with Some p -> [ tcp_listener p ] | None -> []
  in
  let m =
    match opts.so_obs with Some o -> Obs.metrics o | None -> M.create ()
  in
  {
    t_opts = opts;
    t_jobs =
      worker_domains ~recommended:(Domain.recommended_domain_count ())
        opts.so_jobs;
    t_cache =
      Fifo_cache.create ~weight:String.length ~capacity:opts.so_cache_entries ();
    t_sched = Scheduler.create ~limit:opts.so_queue_limit ();
    t_inflight = Hashtbl.create 16;
    t_inflight_lock = Mutex.create ();
    t_landed = Condition.create ();
    t_stopped = Atomic.make false;
    t_listeners = listeners;
    t_clients = Hashtbl.create 16;
    t_clients_lock = Mutex.create ();
    t_next_client = Atomic.make 0;
    t_connections = M.counter m "phloemd_connections";
    t_requests = M.counter m "phloemd_requests";
    t_ok = M.counter m "phloemd_ok";
    t_errors = M.counter m "phloemd_errors";
    t_hits = M.counter m "phloemd_cache_hits";
    t_misses = M.counter m "phloemd_cache_misses";
    t_shed = M.counter m "phloemd_shed";
    t_started = Clock.now ();
  }

(* --- responses ---------------------------------------------------------- *)

(* Best-effort write: a client that hung up mid-job must not take the
   worker answering it down with it. *)
let send t (c : client) (line : string) =
  let data = Bytes.of_string (line ^ "\n") in
  Mutex.lock c.c_wlock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock c.c_wlock)
    (fun () ->
      if c.c_open then
        try
          let n = Bytes.length data in
          let rec loop off =
            if off < n then
              let w = Unix.write c.c_fd data off (n - off) in
              loop (off + w)
          in
          loop 0
        with Unix.Unix_error _ | Sys_error _ ->
          Log.debug ~component:"phloemd" "client %d write failed (gone?)" c.c_id);
  ignore t

(* --- stats -------------------------------------------------------------- *)

let stats_json t : Json.t =
  let sc = Scheduler.stats t.t_sched in
  let rc = Fifo_cache.stats t.t_cache in
  let cc = Pipette.Sim.cache_counters () in
  let metrics_section =
    match t.t_opts.so_obs with
    | None -> []
    | Some obs -> [ ("metrics", Obs.metrics_json obs) ]
  in
  Json.Obj
    ([
      ("uptime_s", Json.Float (Clock.now () -. t.t_started));
      ("jobs", Json.Int t.t_jobs);
      ("connections", Json.Int (M.counter_value t.t_connections));
      ("requests", Json.Int (M.counter_value t.t_requests));
      ("ok", Json.Int (M.counter_value t.t_ok));
      ("errors", Json.Int (M.counter_value t.t_errors));
      ("shed", Json.Int (M.counter_value t.t_shed));
      ( "result_cache",
        Json.Obj
          [
            ("hits", Json.Int rc.Fifo_cache.hits);
            ("misses", Json.Int rc.Fifo_cache.misses);
            ("evictions", Json.Int rc.Fifo_cache.evictions);
            ("entries", Json.Int rc.Fifo_cache.entries);
            ("capacity", Json.Int rc.Fifo_cache.capacity);
            ("payload_bytes", Json.Int rc.Fifo_cache.weight);
          ] );
      ( "scheduler",
        Json.Obj
          [
            ("accepted", Json.Int sc.Scheduler.st_accepted);
            ("shed", Json.Int (M.counter_value t.t_shed));
            ("dispatched", Json.Int sc.Scheduler.st_dispatched);
            ("queued", Json.Int sc.Scheduler.st_queued);
            ("limit", Json.Int sc.Scheduler.st_limit);
            ("queue_wait_total_s", Json.Float sc.Scheduler.st_wait_total_s);
            ("queue_wait_max_s", Json.Float sc.Scheduler.st_wait_max_s);
            ( "queue_wait_mean_s",
              Json.Float
                (if sc.Scheduler.st_dispatched = 0 then 0.0
                 else
                   sc.Scheduler.st_wait_total_s
                   /. float_of_int sc.Scheduler.st_dispatched) );
          ] );
      ( "sim_cache",
        Json.Obj
          [
            ("capacity", Json.Int cc.Pipette.Sim.cc_capacity);
            ("program_hits", Json.Int cc.Pipette.Sim.cc_program_hits);
            ("program_misses", Json.Int cc.Pipette.Sim.cc_program_misses);
            ("program_evictions", Json.Int cc.Pipette.Sim.cc_program_evictions);
            ("program_entries", Json.Int cc.Pipette.Sim.cc_program_entries);
            ("trace_hits", Json.Int cc.Pipette.Sim.cc_trace_hits);
            ("trace_misses", Json.Int cc.Pipette.Sim.cc_trace_misses);
            ("trace_evictions", Json.Int cc.Pipette.Sim.cc_trace_evictions);
            ("trace_entries", Json.Int cc.Pipette.Sim.cc_trace_entries);
            ("trace_bytes", Json.Int cc.Pipette.Sim.cc_trace_bytes);
          ] );
    ]
    @ metrics_section)

(* --- stop --------------------------------------------------------------- *)

(* Idempotent; safe to call from any thread and from a signal handler
   running at a safe point. Closing the listeners wakes the accept loop;
   closing the scheduler wakes the workers, which drain already-queued
   jobs, answer them, and exit. Open client connections are closed by
   [run] after the drain so in-flight jobs still get their responses. *)
let stop t =
  if not (Atomic.exchange t.t_stopped true) then begin
    List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) t.t_listeners;
    (match t.t_opts.so_unix with
    | Some p -> ( try Unix.unlink p with Unix.Unix_error _ | Sys_error _ -> ())
    | None -> ());
    Scheduler.close t.t_sched
  end

let stopped t = Atomic.get t.t_stopped

(* --- workers -------------------------------------------------------------- *)

let failure_code (fr : Phloem_ir.Forensics.report) =
  Phloem_ir.Forensics.kind_name fr.Phloem_ir.Forensics.fr_kind

let job_label (job : Protocol.job) =
  Printf.sprintf "%s/%s/%s" job.Protocol.j_bench job.Protocol.j_variant
    job.Protocol.j_input

(* Run a job's content key once across the workers. The first worker to
   take the key registers it and runs the job; a worker that takes the same
   key meanwhile waits, holding its slot as a second run would have, and
   shares the outcome. The payload enters the result cache before the key
   leaves the table, so a later miss finds one or the other. *)
let run_once t (en : entry) (run : unit -> string) : (string, exn) result =
  Mutex.lock t.t_inflight_lock;
  match Hashtbl.find_opt t.t_inflight en.en_key with
  | Some (flight : flight) ->
    while Option.is_none !flight do
      Condition.wait t.t_landed t.t_inflight_lock
    done;
    Mutex.unlock t.t_inflight_lock;
    Option.get !flight
  | None ->
    let flight : flight = ref None in
    Hashtbl.add t.t_inflight en.en_key flight;
    Mutex.unlock t.t_inflight_lock;
    let r = match run () with payload -> Ok payload | exception e -> Error e in
    (match r with
    | Ok payload -> Fifo_cache.add t.t_cache en.en_key payload
    | Error _ -> ());
    Mutex.protect t.t_inflight_lock (fun () ->
        flight := Some r;
        Hashtbl.remove t.t_inflight en.en_key;
        Condition.broadcast t.t_landed);
    r

(* Answer one finished job. Every exception [Jobs.run] can raise becomes a
   structured error response: this is what keeps the daemon alive through
   any job, not a swallowed error. *)
let respond_result t ~track (en : entry) (r : (string, exn) result) =
  let obs = t.t_opts.so_obs in
  let respond f =
    match obs with
    | None -> f ()
    | Some o -> Obs.span o ~trace:en.en_trace ~track ~name:"respond" f
  in
  M.incr t.t_misses;
  (match r with
  | Ok payload ->
    M.incr t.t_ok;
    respond (fun () ->
        send t en.en_client
          (Protocol.ok_response ~id:en.en_id ~cached:false payload))
  | Error (Phloem_ir.Forensics.Pipeline_failure fr) ->
    M.incr t.t_errors;
    respond (fun () ->
        send t en.en_client
          (Protocol.error_response ~id:en.en_id ~code:(failure_code fr)
             ~failure:(Pipette.Analysis.json_of_failure fr)
             "pipeline failed; see the structured forensics report"))
  | Error (Jobs.Bad_job msg) ->
    M.incr t.t_errors;
    respond (fun () ->
        send t en.en_client
          (Protocol.error_response ~id:en.en_id ~code:"bad-job" msg))
  | Error e ->
    M.incr t.t_errors;
    respond (fun () ->
        send t en.en_client
          (Protocol.error_response ~id:en.en_id ~code:"job-failed"
             (Printexc.to_string e))));
  match obs with
  | None -> ()
  | Some o ->
    Obs.finish_request o ~trace:en.en_trace ~hit:false ~start:en.en_t0
      ~label:(job_label en.en_job)

(* One worker domain: take a job, run it, answer it, until the scheduler is
   closed and drained. Nothing here raises ([Jobs.run]'s exceptions become
   responses, [send] absorbs write errors), so [run]'s [Domain.join] never
   re-raises. Signals are blocked so that handlers such as phloemd's
   SIGTERM -> [stop] run on the readers' domain, never inside [take]'s
   critical section, where [stop] would relock the scheduler's mutex. *)
let worker_loop t =
  ignore (Thread.sigmask Unix.SIG_BLOCK [ Sys.sigterm; Sys.sigint ]);
  let obs = t.t_opts.so_obs in
  let track = Printf.sprintf "worker-%d" (Domain.self () :> int) in
  let rec loop () =
    match Scheduler.take t.t_sched with
    | None -> () (* closed and drained *)
    | Some (en, wait) ->
      (match obs with
      | None -> ()
      | Some o ->
        (* the queue-wait span is reconstructed from the scheduler's
           measured wait, so the trace shows the interval the job sat
           queued *)
        let taken = Obs.now () in
        Obs.observe_queue_wait o wait;
        Obs.record o ~trace:en.en_trace ~track:"queue" ~name:"queue-wait"
          ~start:(taken -. wait) ~stop:taken);
      respond_result t ~track en
        (run_once t en (fun () -> Jobs.run ?obs ~trace:en.en_trace en.en_job));
      loop ()
  in
  loop ()

(* --- per-connection reader ---------------------------------------------- *)

let handle_request t (c : client) (line : string) =
  M.incr t.t_requests;
  let obs = t.t_opts.so_obs in
  let t0 = match obs with None -> 0.0 | Some _ -> Obs.now () in
  let trace = match obs with None -> 0 | Some o -> Obs.next_trace o in
  let track = Printf.sprintf "reader-%d" c.c_id in
  let reader_span name f =
    match obs with
    | None -> f ()
    | Some o -> Obs.span o ~trace ~track ~name f
  in
  match
    reader_span "parse" (fun () ->
        Protocol.parse_request ~max_bytes:t.t_opts.so_max_request line)
  with
  | Error rej ->
    M.incr t.t_errors;
    send t c (Protocol.error_response ~id:Json.Null ~code:rej.Protocol.rj_code
                rej.Protocol.rj_msg)
  | Ok (Protocol.Ping { id }) ->
    M.incr t.t_ok;
    send t c (Protocol.ok_response ~id ~cached:false "\"pong\"")
  | Ok (Protocol.Stats { id }) ->
    M.incr t.t_ok;
    send t c (Protocol.ok_response ~id ~cached:false
                (Json.to_string (stats_json t)))
  | Ok (Protocol.Shutdown { id }) ->
    (* stop before acknowledging, so a client holding the ack can rely on
       [stopped]; [run] closes connections under their write locks, so the
       ack still goes out *)
    M.incr t.t_ok;
    stop t;
    send t c (Protocol.ok_response ~id ~cached:false "\"shutting-down\"")
  | Ok (Protocol.Simulate { id; job }) -> (
    let key = Protocol.content_key job in
    match reader_span "cache-lookup" (fun () -> Fifo_cache.find t.t_cache key) with
    | Some payload ->
      (* content-addressed hit: answered on the reader thread, O(lookup),
         byte-identical to the cold response that filled the entry *)
      M.incr t.t_ok;
      M.incr t.t_hits;
      reader_span "respond" (fun () ->
          send t c (Protocol.ok_response ~id ~cached:true payload));
      (match obs with
      | None -> ()
      | Some o ->
        Obs.finish_request o ~trace ~hit:true ~start:t0 ~label:(job_label job))
    | None -> (
      match
        Scheduler.submit t.t_sched ~client:c.c_id
          {
            en_client = c;
            en_id = id;
            en_key = key;
            en_job = job;
            en_trace = trace;
            en_t0 = t0;
          }
      with
      | Ok () -> ()
      | Error { Scheduler.sh_queued; sh_limit } ->
        M.incr t.t_shed;
        send t c (Protocol.shed_response ~id ~queued:sh_queued ~limit:sh_limit)))

let reader_loop t (c : client) =
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  let oversized () =
    (* no newline within the request bound: reject and drop the connection
       (resynchronizing inside an unbounded line is not worth the state) *)
    M.incr t.t_requests;
    M.incr t.t_errors;
    send t c
      (Protocol.error_response ~id:Json.Null ~code:"oversized"
         (Printf.sprintf "request exceeds %d bytes before a newline"
            t.t_opts.so_max_request))
  in
  let rec drain_lines () =
    let s = Buffer.contents buf in
    match String.index_opt s '\n' with
    | None ->
      if String.length s > t.t_opts.so_max_request then (oversized (); false)
      else true
    | Some i ->
      let line = String.sub s 0 i in
      Buffer.clear buf;
      Buffer.add_substring buf s (i + 1) (String.length s - i - 1);
      let line =
        (* tolerate CRLF clients *)
        let n = String.length line in
        if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line
      in
      if String.length line > 0 then handle_request t c line;
      drain_lines ()
  in
  let rec read_loop () =
    match Unix.read c.c_fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      if drain_lines () then read_loop ()
    | exception Unix.Unix_error _ -> ()
  in
  read_loop ();
  Mutex.lock t.t_clients_lock;
  Hashtbl.remove t.t_clients c.c_id;
  Mutex.unlock t.t_clients_lock;
  Mutex.protect c.c_wlock (fun () ->
      c.c_open <- false;
      try Unix.close c.c_fd with Unix.Unix_error _ -> ())

(* --- accept loop -------------------------------------------------------- *)

let accept_one t lfd =
  match Unix.accept lfd with
  | exception Unix.Unix_error _ -> ()
  | fd, _ ->
    let c =
      {
        c_id = Atomic.fetch_and_add t.t_next_client 1;
        c_fd = fd;
        c_wlock = Mutex.create ();
        c_open = true;
      }
    in
    M.incr t.t_connections;
    Mutex.lock t.t_clients_lock;
    Hashtbl.add t.t_clients c.c_id c;
    Mutex.unlock t.t_clients_lock;
    ignore (Thread.create (fun () -> reader_loop t c) ())

let run t =
  let workers =
    List.init t.t_jobs (fun _ -> Domain.spawn (fun () -> worker_loop t))
  in
  let rec accept_loop () =
    if not (stopped t) then begin
      (match Unix.select t.t_listeners [] [] 0.25 with
      | ready, _, _ -> List.iter (accept_one t) ready
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error (Unix.EBADF, _, _) ->
        (* listeners closed by [stop] *)
        ());
      accept_loop ()
    end
  in
  accept_loop ();
  (* Drain: the scheduler is closed, the workers answer what was already
     queued and exit; only then are client connections torn down, so no
     accepted job loses its response. *)
  List.iter Domain.join workers;
  Mutex.lock t.t_clients_lock;
  let cs = Hashtbl.fold (fun _ c acc -> c :: acc) t.t_clients [] in
  Hashtbl.reset t.t_clients;
  Mutex.unlock t.t_clients_lock;
  List.iter
    (fun c ->
      (* under the write lock: a response being written finishes first *)
      Mutex.protect c.c_wlock (fun () ->
          if c.c_open then
            try Unix.shutdown c.c_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()))
    cs;
  Log.info ~component:"phloemd" "shut down cleanly (%d requests served)"
    (M.counter_value t.t_requests)
