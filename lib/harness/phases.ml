(* Wall-clock attribution for sweep work. Every simulation decomposes into
   three phases — compiling the pipeline to flat µop programs, executing the
   functional semantics to obtain traces, and replaying the traces on the
   timing engine — and with memoization the first two amortize across a
   sweep while the third is paid per config. The accumulators here let the
   wall benchmark report the split and derive an engine-throughput metric
   (simulated ops per simulate-phase second) instead of a single opaque
   number. Accumulators are mutex-guarded: pool workers on other domains
   time their own phases into the same totals. *)

type phase = Compile | Trace | Simulate

type snapshot = {
  ph_compile_s : float;
  ph_trace_s : float;
  ph_simulate_s : float;
  ph_ops : int; (* µops replayed by the timing engine *)
  ph_trace_hits : int;
  ph_trace_misses : int;
}

let lock = Mutex.create ()
let compile_s = ref 0.0
let trace_s = ref 0.0
let simulate_s = ref 0.0
let ops = ref 0

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let reset () =
  with_lock (fun () ->
      compile_s := 0.0;
      trace_s := 0.0;
      simulate_s := 0.0;
      ops := 0)

let cell_of = function
  | Compile -> compile_s
  | Trace -> trace_s
  | Simulate -> simulate_s

let name = function
  | Compile -> "compile"
  | Trace -> "trace"
  | Simulate -> "simulate"

(* The phase is charged even when [f] raises: a deadlocked replay still
   burned the wall time it reports. *)
let timed phase f =
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      let dt = Unix.gettimeofday () -. t0 in
      with_lock (fun () ->
          let c = cell_of phase in
          c := !c +. dt))
    f

let add_ops n = with_lock (fun () -> ops := !ops + n)

(* Throughput and speedup guards. Tiny daemon-dispatched smoke sweeps can
   finish inside the wall clock's resolution, making a measured duration
   exactly 0.0 (or, through later arithmetic, non-finite); a naive division
   then writes inf/NaN into a JSON report, which the strict parser behind
   [Regress.compare_json] rejects — one degenerate measurement poisons the
   whole comparison. Both helpers map every degenerate case to 0.0, which
   reports render as "no measurement" rather than corrupting the file. *)
let per_second n s =
  if n <= 0 || not (Float.is_finite s) || s <= 0.0 then 0.0
  else
    let r = float_of_int n /. s in
    if Float.is_finite r then r else 0.0

let ratio a b =
  if not (Float.is_finite a) || not (Float.is_finite b) || b <= 0.0 || a < 0.0
  then 0.0
  else
    let r = a /. b in
    if Float.is_finite r then r else 0.0

let snapshot () =
  let cc = Pipette.Sim.cache_counters () in
  with_lock (fun () ->
      {
        ph_compile_s = !compile_s;
        ph_trace_s = !trace_s;
        ph_simulate_s = !simulate_s;
        ph_ops = !ops;
        ph_trace_hits = cc.Pipette.Sim.cc_trace_hits;
        ph_trace_misses = cc.Pipette.Sim.cc_trace_misses;
      })
