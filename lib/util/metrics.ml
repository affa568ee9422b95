(* Domain-safe metrics registry: counters, gauges, log-bucketed latency
   histograms and a bounded span recorder.

   This module deliberately has no notion of time: callers (the daemon,
   the autotuner) pass seconds read from [Clock.now].
   Counters and gauges are atomics; histograms and the span recorder take a
   short critical section per observation. Instrument handles are
   get-or-create so hot paths can resolve them once and hammer the atomic. *)

type counter = int Atomic.t
type gauge = float Atomic.t
type histogram = { hi_lock : Mutex.t; hi_hist : Stats.hist }

type t = {
  m_lock : Mutex.t;
  m_counters : (string, counter) Hashtbl.t;
  m_gauges : (string, gauge) Hashtbl.t;
  m_hists : (string, histogram) Hashtbl.t;
}

let create () =
  {
    m_lock = Mutex.create ();
    m_counters = Hashtbl.create 16;
    m_gauges = Hashtbl.create 16;
    m_hists = Hashtbl.create 16;
  }

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let get_or_create t tbl name mk =
  with_lock t.m_lock (fun () ->
      match Hashtbl.find_opt tbl name with
      | Some v -> v
      | None ->
        let v = mk () in
        Hashtbl.replace tbl name v;
        v)

let counter t name = get_or_create t t.m_counters name (fun () -> Atomic.make 0)
let gauge t name = get_or_create t t.m_gauges name (fun () -> Atomic.make 0.0)

let histogram t name =
  get_or_create t t.m_hists name (fun () ->
      { hi_lock = Mutex.create (); hi_hist = Stats.hist_create () })

let incr ?(by = 1) c = ignore (Atomic.fetch_and_add c by : int)
let counter_value c = Atomic.get c
let set g v = Atomic.set g v
let gauge_value g = Atomic.get g

let observe h v = with_lock h.hi_lock (fun () -> Stats.hist_add h.hi_hist v)

let observed h = with_lock h.hi_lock (fun () -> Stats.hist_copy h.hi_hist)

(* --- snapshots ---------------------------------------------------------- *)

type snapshot = {
  sn_counters : (string * int) list;
  sn_gauges : (string * float) list;
  sn_hists : (string * Stats.hist) list;
}

let by_name (a, _) (b, _) = String.compare a b

let snapshot t =
  (* Take the registry lock only to list the instruments; each histogram is
     then copied under its own lock so observers never block behind a
     long-running snapshot. *)
  let counters, gauges, hists =
    with_lock t.m_lock (fun () ->
        ( Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.m_counters [],
          Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.m_gauges [],
          Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.m_hists [] ))
  in
  {
    sn_counters =
      List.sort by_name (List.map (fun (k, c) -> (k, Atomic.get c)) counters);
    sn_gauges =
      List.sort by_name (List.map (fun (k, g) -> (k, Atomic.get g)) gauges);
    sn_hists = List.sort by_name (List.map (fun (k, h) -> (k, observed h)) hists);
  }

let merge_assoc combine a b =
  let tbl = Hashtbl.create 16 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) a;
  List.iter
    (fun (k, v) ->
      match Hashtbl.find_opt tbl k with
      | None -> Hashtbl.replace tbl k v
      | Some prev -> Hashtbl.replace tbl k (combine prev v))
    b;
  List.sort by_name (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let merge a b =
  {
    sn_counters = merge_assoc ( + ) a.sn_counters b.sn_counters;
    sn_gauges = merge_assoc Float.max a.sn_gauges b.sn_gauges;
    sn_hists = merge_assoc Stats.hist_merge a.sn_hists b.sn_hists;
  }

(* --- Prometheus text exposition ----------------------------------------- *)

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    name

let prom_float v =
  if v = infinity then "+Inf"
  else if v = neg_infinity then "-Inf"
  else Printf.sprintf "%.9g" v

let to_prometheus snap =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (k, v) ->
      let n = sanitize k in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n%s %d\n" n n v))
    snap.sn_counters;
  List.iter
    (fun (k, v) ->
      let n = sanitize k in
      Buffer.add_string buf
        (Printf.sprintf "# TYPE %s gauge\n%s %s\n" n n (prom_float v)))
    snap.sn_gauges;
  List.iter
    (fun (k, h) ->
      let n = sanitize k in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s histogram\n" n);
      let cum = ref 0 in
      List.iter
        (fun (_, hi, c) ->
          cum := !cum + c;
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" n (prom_float hi) !cum))
        (Stats.hist_buckets h);
      if !cum < Stats.hist_count h then
        (* defensive: hist_buckets covers every sample, but keep the +Inf
           bucket consistent with _count regardless *)
        cum := Stats.hist_count h;
      Buffer.add_string buf
        (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" n !cum);
      Buffer.add_string buf
        (Printf.sprintf "%s_sum %s\n" n (prom_float (Stats.hist_sum h)));
      Buffer.add_string buf (Printf.sprintf "%s_count %d\n" n (Stats.hist_count h)))
    snap.sn_hists;
  Buffer.contents buf

(* --- span recorder ------------------------------------------------------ *)

type span = {
  sp_trace : int;
  sp_track : string;
  sp_name : string;
  sp_start : float;
  sp_stop : float;
}

type recorder = {
  r_lock : Mutex.t;
  r_max : int;
  mutable r_spans : span list; (* newest first *)
  mutable r_count : int;
  mutable r_dropped : int;
}

let recorder ?(max_spans = 65536) () =
  if max_spans < 1 then invalid_arg "Metrics.recorder: max_spans must be >= 1";
  {
    r_lock = Mutex.create ();
    r_max = max_spans;
    r_spans = [];
    r_count = 0;
    r_dropped = 0;
  }

let record r ~trace ~track ~name ~start ~stop =
  with_lock r.r_lock (fun () ->
      if r.r_count >= r.r_max then r.r_dropped <- r.r_dropped + 1
      else begin
        r.r_spans <-
          {
            sp_trace = trace;
            sp_track = track;
            sp_name = name;
            sp_start = start;
            sp_stop = stop;
          }
          :: r.r_spans;
        r.r_count <- r.r_count + 1
      end)

let spans r =
  let s = with_lock r.r_lock (fun () -> r.r_spans) in
  List.sort
    (fun a b ->
      match Float.compare a.sp_start b.sp_start with
      | 0 -> Float.compare a.sp_stop b.sp_stop
      | c -> c)
    s

let span_count r = with_lock r.r_lock (fun () -> r.r_count)
let dropped_spans r = with_lock r.r_lock (fun () -> r.r_dropped)
