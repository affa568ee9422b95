(* Observability layer for the timing engine: a counter/gauge registry with
   periodic interval sampling, per-thread state (stall-class) timelines, and
   exporters for machine-readable JSON reports and Chrome trace-event files
   (loadable in chrome://tracing or Perfetto).

   The engine owns the probes: it registers readers against a [t] created by
   the caller, feeds thread-state transitions as it classifies stalls, and
   calls [maybe_sample] once per simulated step. Counters are sampled as
   deltas since the previous sample, so the deltas over a run sum exactly to
   the final aggregate; gauges are sampled as instantaneous values and also
   recorded as Chrome counter tracks. *)

module Json = Phloem_util.Json

type kind = Counter | Gauge

type probe = {
  pr_name : string;
  pr_kind : kind;
  pr_read : unit -> int;
  mutable pr_last : int; (* last sampled raw value, for counter deltas *)
}

type sample = {
  s_cycle : int;
  s_values : (string * int) array;
      (* counter deltas since the previous sample / gauge values, in
         registration order *)
}

type span = { sp_thread : int; sp_state : string; sp_start : int; sp_end : int }
type point = { pt_track : string; pt_cycle : int; pt_value : int }
type thread_meta = { tm_thread : int; tm_core : int; tm_name : string }

(* Spans and counter points kept per run; later events are counted as
   dropped. *)
let max_events = 2_000_000

type t = {
  interval : int;
  mutable probes : probe list; (* reverse registration order *)
  mutable samples : sample list; (* reverse chronological *)
  mutable next_sample : int;
  mutable spans : span list; (* reverse chronological *)
  mutable points : point list; (* reverse chronological *)
  mutable n_events : int;
  mutable dropped : int;
  open_state : (int, string * int) Hashtbl.t; (* thread -> (state, since) *)
  mutable metas : thread_meta list;
  mutable finished_at : int; (* -1 until [finish] *)
}

let create ?(interval = 1000) () =
  if interval <= 0 then invalid_arg "Telemetry.create: interval must be > 0";
  {
    interval;
    probes = [];
    samples = [];
    next_sample = interval;
    spans = [];
    points = [];
    n_events = 0;
    dropped = 0;
    open_state = Hashtbl.create 16;
    metas = [];
    finished_at = -1;
  }

let interval t = t.interval

let register t ~kind ~name read =
  t.probes <- { pr_name = name; pr_kind = kind; pr_read = read; pr_last = 0 } :: t.probes

let register_counter t ~name read = register t ~kind:Counter ~name read
let register_gauge t ~name read = register t ~kind:Gauge ~name read

let set_thread_meta t ~thread ~core ~name =
  t.metas <- { tm_thread = thread; tm_core = core; tm_name = name } :: t.metas

let push_span t span =
  if t.n_events < max_events then begin
    t.spans <- span :: t.spans;
    t.n_events <- t.n_events + 1
  end
  else t.dropped <- t.dropped + 1

let push_point t point =
  if t.n_events < max_events then begin
    t.points <- point :: t.points;
    t.n_events <- t.n_events + 1
  end
  else t.dropped <- t.dropped + 1

(* Record that [thread] is in [state] as of [cycle]; closes the previous
   state's span when the state changes. Zero-length spans are elided. *)
let set_thread_state t ~thread ~cycle state =
  match Hashtbl.find_opt t.open_state thread with
  | Some (cur, _) when String.equal cur state -> ()
  | prev ->
    (match prev with
    | Some (cur, since) when since < cycle ->
      push_span t { sp_thread = thread; sp_state = cur; sp_start = since; sp_end = cycle }
    | _ -> ());
    Hashtbl.replace t.open_state thread (state, cycle)

let end_thread_state t ~thread ~cycle =
  (match Hashtbl.find_opt t.open_state thread with
  | Some (cur, since) when since < cycle ->
    push_span t { sp_thread = thread; sp_state = cur; sp_start = since; sp_end = cycle }
  | _ -> ());
  Hashtbl.remove t.open_state thread

let take_sample t ~cycle =
  let probes = List.rev t.probes in
  let values =
    List.map
      (fun p ->
        let v = p.pr_read () in
        match p.pr_kind with
        | Gauge ->
          push_point t { pt_track = p.pr_name; pt_cycle = cycle; pt_value = v };
          (p.pr_name, v)
        | Counter ->
          let d = v - p.pr_last in
          p.pr_last <- v;
          (p.pr_name, d))
      probes
  in
  t.samples <- { s_cycle = cycle; s_values = Array.of_list values } :: t.samples

(* Called once per engine step with the current cycle; samples at most once
   per call, at the first crossed interval boundary (fast-forwarded regions
   collapse into one sample so counter deltas still partition the run). *)
let maybe_sample t ~cycle =
  if cycle >= t.next_sample && t.finished_at < 0 then begin
    take_sample t ~cycle;
    t.next_sample <- cycle - (cycle mod t.interval) + t.interval
  end

(* Close all open spans and flush a final sample so that counter deltas over
   [samples] sum exactly to the run's aggregate counters. Idempotent. *)
let finish t ~cycle =
  if t.finished_at < 0 then begin
    let open_threads = Hashtbl.fold (fun th _ acc -> th :: acc) t.open_state [] in
    List.iter (fun th -> end_thread_state t ~thread:th ~cycle) open_threads;
    take_sample t ~cycle;
    t.finished_at <- cycle
  end

let samples t = List.rev t.samples
let spans t = List.rev t.spans
let points t = List.rev t.points

(* Sum of a counter probe's deltas across all samples taken so far. *)
let sum_counter t name =
  List.fold_left
    (fun acc s ->
      Array.fold_left
        (fun acc (n, v) -> if String.equal n name then acc + v else acc)
        acc s.s_values)
    0 t.samples

let samples_json t : Json.t =
  Json.List
    (List.map
       (fun s ->
         Json.Obj
           [
             ("cycle", Json.Int s.s_cycle);
             ( "values",
               Json.Obj
                 (Array.to_list
                    (Array.map (fun (n, v) -> (n, Json.Int v)) s.s_values)) );
           ])
       (samples t))

let report_json t : Json.t =
  Json.Obj
    [
      ("sample_interval", Json.Int t.interval);
      ("dropped_events", Json.Int t.dropped);
      ("samples", samples_json t);
    ]

(* --- generic Chrome trace-event emitter --------------------------------

   Shared by the engine exporter below and by the phloemd daemon tracer:
   both reduce their timelines to named processes/threads, complete "X"
   spans and "C" counter tracks, so the format details (metadata events,
   microsecond ts/dur fields, displayTimeUnit) live in one place. *)

type trace_span = {
  te_pid : int;
  te_tid : int;
  te_cat : string;
  te_name : string;
  te_ts : int; (* microseconds *)
  te_dur : int;
}

type trace_counter = { tc_name : string; tc_ts : int; tc_value : int }

let trace_events_json ?(process_names = []) ?(thread_names = [])
    ?(counters = []) spans : Json.t =
  let metas =
    List.map
      (fun (pid, name) ->
        Json.Obj
          [
            ("ph", Json.Str "M");
            ("name", Json.Str "process_name");
            ("pid", Json.Int pid);
            ("args", Json.Obj [ ("name", Json.Str name) ]);
          ])
      process_names
    @ List.map
        (fun ((pid, tid), name) ->
          Json.Obj
            [
              ("ph", Json.Str "M");
              ("name", Json.Str "thread_name");
              ("pid", Json.Int pid);
              ("tid", Json.Int tid);
              ("args", Json.Obj [ ("name", Json.Str name) ]);
            ])
        thread_names
  in
  let span_events =
    List.map
      (fun sp ->
        Json.Obj
          [
            ("ph", Json.Str "X");
            ("name", Json.Str sp.te_name);
            ("cat", Json.Str sp.te_cat);
            ("pid", Json.Int sp.te_pid);
            ("tid", Json.Int sp.te_tid);
            ("ts", Json.Int sp.te_ts);
            ("dur", Json.Int sp.te_dur);
          ])
      spans
  in
  let counter_events =
    List.map
      (fun pt ->
        Json.Obj
          [
            ("ph", Json.Str "C");
            ("name", Json.Str pt.tc_name);
            ("pid", Json.Int 0);
            ("ts", Json.Int pt.tc_ts);
            ("args", Json.Obj [ ("value", Json.Int pt.tc_value) ]);
          ])
      counters
  in
  Json.Obj
    [
      ("traceEvents", Json.List (metas @ span_events @ counter_events));
      ("displayTimeUnit", Json.Str "ms");
    ]

(* Chrome trace-event export: one timeline track per thread (issue/stall
   state spans as complete "X" events, grouped by core as the process), plus
   one counter ("C") track per registered gauge. Timestamps are in simulated
   cycles, reported through the trace format's microsecond field. *)
let trace_json t : Json.t =
  let core_of = Hashtbl.create 16 in
  List.iter (fun m -> Hashtbl.replace core_of m.tm_thread m.tm_core) t.metas;
  let pid thread = try Hashtbl.find core_of thread with Not_found -> 0 in
  let process_names =
    List.rev_map
      (fun m -> (m.tm_core, Printf.sprintf "core%d" m.tm_core))
      t.metas
  in
  let thread_names =
    List.rev_map (fun m -> ((m.tm_core, m.tm_thread), m.tm_name)) t.metas
  in
  let spans =
    List.rev_map
      (fun sp ->
        {
          te_pid = pid sp.sp_thread;
          te_tid = sp.sp_thread;
          te_cat = "thread";
          te_name = sp.sp_state;
          te_ts = sp.sp_start;
          te_dur = sp.sp_end - sp.sp_start;
        })
      t.spans
  in
  let counters =
    List.rev_map
      (fun pt -> { tc_name = pt.pt_track; tc_ts = pt.pt_cycle; tc_value = pt.pt_value })
      t.points
  in
  trace_events_json ~process_names ~thread_names ~counters spans

let write_trace_file t file = Json.to_file file (trace_json t)
