(* Service-level observability for phloemd: one [t] bundles a
   Phloem_util.Metrics registry, a span recorder for the request timeline,
   and the slow-request threshold. The server, its workers, and the job
   runner all instrument through this module so the daemon has a single
   metrics surface.

   Everything here is optional: the server takes [Obs.t option], and [None]
   (the default) leaves the request path untouched — cache hits still
   splice raw payload bytes with no extra clock reads.

   Span taxonomy (tracks are logical threads in the Chrome trace):
     reader-<client>   parse, cache-lookup, respond (hit path)
     queue             queue-wait (enqueue -> take, per job)
     worker-<domain>   execute, containing compile, trace, simulate and
                       serialize; then respond (cold path) *)

module Json = Phloem_util.Json
module M = Phloem_util.Metrics
module Log = Phloem_util.Log

type t = {
  ob_metrics : M.t;
  ob_recorder : M.recorder;
  ob_slow_s : float option;
  ob_next_trace : int Atomic.t;
  (* hot-path handles, resolved once *)
  ob_hit_latency : M.histogram;
  ob_miss_latency : M.histogram;
  ob_queue_wait : M.histogram;
}

let create ?slow_ms () =
  let m = M.create () in
  {
    ob_metrics = m;
    ob_recorder = M.recorder ();
    ob_slow_s = Option.map (fun ms -> ms /. 1000.0) slow_ms;
    ob_next_trace = Atomic.make 1;
    ob_hit_latency = M.histogram m "phloemd_request_latency_hit_s";
    ob_miss_latency = M.histogram m "phloemd_request_latency_miss_s";
    ob_queue_wait = M.histogram m "phloemd_queue_wait_s";
  }

let metrics t = t.ob_metrics
let spans t = M.spans t.ob_recorder
let now = Phloem_util.Clock.now
let next_trace t = Atomic.fetch_and_add t.ob_next_trace 1

let record t ~trace ~track ~name ~start ~stop =
  M.record t.ob_recorder ~trace ~track ~name ~start ~stop

(* Time a section and record it as a span; the span is recorded also when
   [f] raises (the time was spent either way). *)
let span t ~trace ~track ~name f =
  let start = now () in
  Fun.protect
    ~finally:(fun () -> record t ~trace ~track ~name ~start ~stop:(now ()))
    f

let observe_queue_wait t wait = M.observe t.ob_queue_wait wait

(* Close out one simulate request: latency goes to the hit or miss
   histogram, and past the slow threshold the request is logged with its
   identity so an operator can correlate with the trace id. *)
let finish_request t ~trace ~hit ~start ~label =
  let latency = now () -. start in
  M.observe (if hit then t.ob_hit_latency else t.ob_miss_latency) latency;
  match t.ob_slow_s with
  | Some thr when latency >= thr ->
    Log.warn ~component:"phloemd" "slow request trace=%d %s: %.1f ms (%s)"
      trace label (latency *. 1000.0)
      (if hit then "cache hit" else "cold")
  | _ -> ()

(* --- exposition --------------------------------------------------------- *)

let hist_json h : Json.t =
  let pct p =
    if Phloem_util.Stats.hist_count h = 0 then Json.Null
    else Json.Float (Phloem_util.Stats.percentile_hist p h)
  in
  let opt_float = function None -> Json.Null | Some v -> Json.Float v in
  Json.Obj
    [
      ("count", Json.Int (Phloem_util.Stats.hist_count h));
      ("sum", Json.Float (Phloem_util.Stats.hist_sum h));
      ("min", opt_float (Phloem_util.Stats.hist_min h));
      ("max", opt_float (Phloem_util.Stats.hist_max h));
      ("mean", Json.Float (Phloem_util.Stats.hist_mean h));
      ("p50", pct 0.50);
      ("p95", pct 0.95);
      ("p99", pct 0.99);
      ( "buckets",
        Json.List
          (List.map
             (fun (lo, hi, c) ->
               Json.List [ Json.Float lo; Json.Float hi; Json.Int c ])
             (Phloem_util.Stats.hist_buckets h)) );
    ]

let metrics_json t : Json.t =
  let snap = M.snapshot t.ob_metrics in
  Json.Obj
    [
      ( "counters",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) snap.M.sn_counters)
      );
      ( "gauges",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) snap.M.sn_gauges)
      );
      ( "histograms",
        Json.Obj (List.map (fun (k, h) -> (k, hist_json h)) snap.M.sn_hists) );
      ( "spans",
        Json.Obj
          [
            ("recorded", Json.Int (M.span_count t.ob_recorder));
            ("dropped", Json.Int (M.dropped_spans t.ob_recorder));
          ] );
    ]

(* Chrome trace: one process ("phloemd"), one tid per span track in order
   of first appearance. Clock seconds become microseconds relative to
   the earliest span so the timeline starts at 0; sub-microsecond spans
   round up to 1 µs to stay visible. *)
let trace_json t : Json.t =
  let spans = M.spans t.ob_recorder in
  let tids = Hashtbl.create 16 in
  let order = ref [] in
  let tid_of track =
    match Hashtbl.find_opt tids track with
    | Some id -> id
    | None ->
      let id = Hashtbl.length tids in
      Hashtbl.add tids track id;
      order := (track, id) :: !order;
      id
  in
  let epoch =
    match spans with [] -> 0.0 | s :: _ -> s.M.sp_start
  in
  let us v = int_of_float (Float.round ((v -. epoch) *. 1e6)) in
  let trace_spans =
    List.map
      (fun (s : M.span) ->
        {
          Pipette.Telemetry.te_pid = 0;
          te_tid = tid_of s.M.sp_track;
          te_cat = "request";
          te_name = s.M.sp_name;
          te_ts = us s.M.sp_start;
          te_dur = max 1 (us s.M.sp_stop - us s.M.sp_start);
        })
      spans
  in
  let thread_names = List.rev_map (fun (tr, id) -> ((0, id), tr)) !order in
  Pipette.Telemetry.trace_events_json
    ~process_names:[ (0, "phloemd") ]
    ~thread_names trace_spans

(* Atomic write (tmp + rename): a scrape or a crash never observes a
   half-written file. *)
let write_string_file file s =
  let tmp = file ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc s;
      output_char oc '\n');
  Sys.rename tmp file

let write_metrics_file t file =
  if Filename.check_suffix file ".prom" then
    write_string_file file (M.to_prometheus (M.snapshot t.ob_metrics))
  else write_string_file file (Json.to_string (metrics_json t))

let write_trace_file t file =
  write_string_file file (Json.to_string (trace_json t))
