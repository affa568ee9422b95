(* Cycle-level timing replay of micro-op traces on the Pipette architecture.

   Each pipeline stage is an SMT thread. Per cycle, a core dispatches ops
   in program order into a shared instruction window (ROB), issues up to
   [issue_width] ready ops across its threads (out of order within the
   window, subject to data deps, memory ports, queue occupancy, and branch
   redirects), and retires in order. Queue back-pressure, reference
   accelerators, and barriers run alongside. Stall cycles are fast-forwarded
   through an event heap, so memory-bound regions simulate quickly. *)

open Phloem_util
open Phloem_ir

let unset = max_int

type stall_class = Sc_issue | Sc_backend | Sc_queue | Sc_other

(* Refined stall attribution. The 4-way [stall_class] split is what the
   aggregate result reports (and what the default output prints); each
   non-issue cycle additionally carries a cause: which queue blocked the
   thread and in which direction (full = downstream backpressure, empty =
   upstream starvation), or which cache level served the load the thread is
   waiting on. The mapping reason -> class is total and fixed, so refined
   counts always reconcile exactly with the 4-way aggregates. *)
type stall_reason =
  | R_issue
  | R_backend of int (* serving cache level: 0 = port/unattributed, 1..3 = L1..L3, 4 = DRAM *)
  | R_queue_full of int (* queue id: enqueue blocked, downstream backpressure *)
  | R_queue_empty of int (* queue id: dequeue starved, upstream too slow *)
  | R_barrier
  | R_other

let class_of_reason = function
  | R_issue -> Sc_issue
  | R_backend _ -> Sc_backend
  | R_queue_full _ | R_queue_empty _ | R_barrier -> Sc_queue
  | R_other -> Sc_other

type thread_state = {
  th_id : int;
  th_core : int;
  (* the trace's own columns, read in place (see [Trace]) *)
  kind : Bytes.t;
  pa : Bytes.t;
  dep1 : Bytes.t;
  dep2 : Bytes.t;
  dep3 : Bytes.t;
  n_ops : int;
  (* Per-op scratch is a ring over the instruction window: op [i] lives in
     slot [i land mask]. The window [retire_ptr, dispatch_ptr) never holds
     more ops than the core's ROB share, at most [max 16 rob_size], and the
     ring has at least that many slots (or [n_ops]), so the ops in the
     window never share a slot. Dispatch resets an op's slot. An op below
     [retire_ptr] has completed: a dependence on it is met without reading
     its (since reused) slot. *)
  mask : int;
  comp : int array; (* completion cycle per op; [unset] until issued *)
  wake : int array;
      (* earliest cycle a previously-failed issue probe could succeed: a
         failed [try_issue] is side-effect-free and its blocking condition
         is monotone (dep completion times only get set, never lowered;
         queue arrivals land strictly in the future), so the walk skips
         re-probing an op until its recorded wake cycle. Enqueue ops are
         the exception — a same-cycle dequeue can free a slot (and fault
         drop rolls must re-roll per attempt) — so their probes record
         wake = now and are always retried. *)
  link : int array; (* singly-linked list over dispatched, unissued ops *)
  svc : Bytes.t; (* cache level that served each memory op, 0 otherwise *)
  mutable unissued_head : int; (* -1 = none *)
  mutable unissued_tail : int;
  mutable dispatch_ptr : int;
  mutable retire_ptr : int;
  mutable blocked_branch : int; (* op index, or -1 *)
  mutable done_ : bool;
  (* Fault injection: a killed thread stays live but never dispatches,
     issues or retires again, so its consumers starve into a detectable
     deadlock rather than a silent wrong answer; [stalled_now] is
     refreshed once per loop iteration. Both stay false without faults. *)
  mutable killed : bool;
  mutable stalled_now : bool;
  mutable issued_this_cycle : int;
  mutable scanned : int; (* ops the walks visited this cycle *)
  (* accounting *)
  mutable cy_issue : int;
  mutable cy_backend : int;
  mutable cy_queue : int;
  mutable cy_other : int;
  (* refined attribution, reconciling with the 4-way split above *)
  aq_full : int array; (* per queue: cycles blocked enqueueing into it *)
  aq_empty : int array; (* per queue: cycles starved dequeueing from it *)
  mutable cy_barrier : int; (* barrier waits (counted under cy_queue) *)
  backend_lvl : int array; (* 0 = port/unattributed, 1..3 = L1..L3, 4 = DRAM *)
  enq_ops : int array; (* per queue: enqueues issued (producer map) *)
  deq_ops : int array; (* per queue: dequeues issued (consumer map) *)
}

type queue_state = {
  qs_capacity : int;
  arrived : int array;
      (* ring of the latest [capacity + 1] arrival times, in arrival
         (issue) order: FIFO matching, which is what the hardware does —
         the functional scheduler's interleaving on multi-producer queues
         need not be replayable under bounded capacity. See [arrival]. *)
  mutable pushed : int; (* arrivals so far *)
  mutable next_slot : int; (* ring slot of the next arrival: [pushed] mod slots *)
  mutable deq_issued : int; (* consumer progress *)
  mutable ra_consumed : int; (* RA-input progress *)
  mutable occupancy : int;
}

type ra_state = {
  ra_core : int;
  ra_in_q : int;
  ra_out_q : int;
  (* the RA trace's own columns, read in place *)
  rin_seq : Bytes.t;
  rout_seq : Bytes.t;
  raddr : Bytes.t;
  rn : int;
  fetch_done : int array;
      (* ring of completion cycles of the fetches in flight, event [i] in
         slot [i land fd_mask]: [next_start - next_deliver = outstanding <=
         ra_mshrs] and the ring has at least [ra_mshrs] slots. Read only
         for [next_deliver <= i < next_start]. *)
  fd_mask : int;
  mutable next_start : int;
  mutable next_deliver : int;
  mutable outstanding : int;
  mutable fetches : int;
}

(* Per-queue attribution: all arrays indexed by thread id. [qa_occ_hist]
   counts, for each occupancy value 0..capacity, the cycles the queue spent
   at that occupancy — buckets sum exactly to the run's cycle count. *)
type queue_attr = {
  qa_id : int;
  qa_capacity : int;
  qa_full : int array; (* cycles each thread spent blocked enqueueing *)
  qa_empty : int array; (* cycles each thread spent starved dequeueing *)
  qa_enqs : int array; (* enqueues issued by each thread *)
  qa_deqs : int array; (* dequeues issued by each thread *)
  qa_occ_hist : int array;
}

(* Refined attribution of the run. Reconciliation invariants (asserted in
   tests): per thread, queue-full + queue-empty + barrier = queue_cycles and
   the backend-level buckets sum to backend_cycles; per-thread class arrays
   sum to the aggregate class fields of [result]. *)
type attribution = {
  at_queues : queue_attr array;
  at_issue : int array; (* per-thread 4-way split, summing to the aggregates *)
  at_backend : int array;
  at_queue : int array;
  at_other : int array;
  at_barrier : int array; (* per thread: barrier waits within at_queue *)
  at_backend_level : int array array;
      (* per thread: [|port/unattributed; L1; L2; L3; DRAM|], summing to
         at_backend *)
}

type result = {
  cycles : int;
  instrs : int;
  issue_cycles : int; (* summed over threads *)
  backend_cycles : int;
  queue_cycles : int;
  other_cycles : int;
  cache : Cache.counters;
  branch_lookups : int;
  branch_mispredicts : int;
  queue_ops : int;
  ra_fetches : int;
  n_threads : int;
  n_cores_used : int;
  attribution : attribution;
}

let default_thread_core (cfg : Config.t) n_threads =
  Array.init n_threads (fun i ->
      let core = i / cfg.smt_threads in
      if core >= cfg.n_cores then
        invalid_arg
          (Printf.sprintf
             "engine: %d threads do not fit on %d cores x %d SMT threads"
             n_threads cfg.n_cores cfg.smt_threads);
      core)

let default_cycle_budget = 500_000_000
let default_watchdog = 5_000_000

(* --- trace and queue readers --------------------------------------------

   Trace columns hold fixed-width native-endian fields (see [Trace]). The
   [_u] readers skip the bounds check, under the invariant stated at
   [replay]'s hot path; the others check against the sealed column. None
   boxes: each is a load the compiler unboxes in place. A dependence
   column holds op [i]'s distance back to its producer, 0 for none. *)
let[@inline] kind_u th i = Char.code (Bytes.unsafe_get th.kind i)
let[@inline] kind_of th i = Char.code (Bytes.get th.kind i)
let[@inline] pa_u th i = Int32.to_int (Trace.get32u th.pa (4 * i))
let[@inline] pa_of th i = Int32.to_int (Bytes.get_int32_ne th.pa (4 * i))
let[@inline] get32 col i = Int32.to_int (Bytes.get_int32_ne col (4 * i))

let[@inline] dist_u col i = Trace.get16u col (2 * i)
let[@inline] dist col i = Bytes.get_uint16_ne col (2 * i)

(* A queue never holds more than its capacity, so the elements its
   consumer can still read (the unconsumed ones, plus the last one an RA
   consumed, which a scan RA rereads for the outputs that share it) are
   among the latest [capacity + 1] arrivals: [arrived] keeps exactly those.
   [arrival q i] is the arrival time of the [i]-th element ever enqueued on
   [q], for [pushed - (capacity + 1) <= i < pushed]; an older [i] has been
   overwritten and raises rather than read a later element's time. *)
let[@inline never] overwritten q i =
  invalid_arg
    (Printf.sprintf "Engine.arrival: element %d is not among the %d latest of %d" i
       (Array.length q.arrived) q.pushed)

let arrival q i =
  let slots = Array.length q.arrived in
  let back = q.pushed - i in
  if back < 1 || back > slots then overwritten q i;
  let s = q.next_slot - back in
  Array.unsafe_get q.arrived (if s < 0 then s + slots else s)

let arrive q t =
  Array.unsafe_set q.arrived q.next_slot t;
  let s = q.next_slot + 1 in
  q.next_slot <- (if s = Array.length q.arrived then 0 else s);
  q.pushed <- q.pushed + 1

(* --- cycle-loop helpers ---------------------------------------------------

   The helpers below are top-level functions that take their state (the
   thread, the current cycle) as arguments, so the compiler can inline
   them into the cycle loop; the rest of the loop's steps are closures
   inside [replay], each allocated once per replay. They use the same
   unchecked indexing as [replay] (see the invariant stated there). *)

let[@inline] slot th i = i land th.mask
let[@inline] inactive th = th.killed || th.stalled_now

(* Window occupancy = dispatched but not retired. *)
let[@inline] window_room core_share th =
  th.dispatch_ptr - th.retire_ptr < Array.unsafe_get core_share th.th_core

(* A thread with no pending branch redirect and either a drained program
   or a full window slice can never consume front-end bandwidth this
   cycle: the dispatch sweep skips the call. *)
let[@inline] can_dispatch core_share th =
  th.blocked_branch >= 0 || (th.dispatch_ptr < th.n_ops && window_room core_share th)

(* The oldest op in the window has completed: [retire] has work. *)
let[@inline] can_retire th now =
  th.retire_ptr < th.dispatch_ptr && Array.unsafe_get th.comp (slot th th.retire_ptr) <= now

(* The dependence helpers take op [i] and one of its dependence fields
   [x]: no producer when [x] is 0, else op [i - x]. A producer below
   [retire_ptr] has completed; a saturated distance always names one (see
   [run]'s window guard). *)
let[@inline] dep_met th now i x =
  x = 0 || i - x < th.retire_ptr || Array.unsafe_get th.comp (slot th (i - x)) <= now

let[@inline] deps_met th i now =
  dep_met th now i (dist_u th.dep1 i)
  && dep_met th now i (dist_u th.dep2 i)
  && dep_met th now i (dist_u th.dep3 i)

(* Earliest cycle this op's unmet dependencies could all be satisfied: a
   set completion time is exact. A producer not yet issued cannot issue
   before its own wake (it precedes this op in the probe prefix, so this
   walk has just probed or skipped it) and completes at least a cycle
   later; a barrier issued but not yet released has a stale wake, and the
   [now + 1] floor covers it. *)
let dep_wake1 th now i x acc =
  let d = i - x in
  if x = 0 || d < th.retire_ptr then acc
  else begin
    let s = slot th d in
    let c = Array.unsafe_get th.comp s in
    if c <= now then acc
    else if c = unset then Int.max acc (Array.unsafe_get th.wake s + 1)
    else Int.max acc c
  end

let dep_wake th i now =
  dep_wake1 th now i (dist_u th.dep1 i)
    (dep_wake1 th now i (dist_u th.dep2 i) (dep_wake1 th now i (dist_u th.dep3 i) (now + 1)))

(* The stall reasons that carry an argument, built once per run and shared,
   so classifying a stalled cycle allocates nothing. *)
type reasons = {
  rs_backend : stall_reason array; (* by serving level, 0..4 *)
  rs_queue_full : stall_reason array; (* by queue id *)
  rs_queue_empty : stall_reason array;
}

let make_reasons n_queues =
  {
    rs_backend = Array.init 5 (fun l -> R_backend l);
    rs_queue_full = Array.init n_queues (fun q -> R_queue_full q);
    rs_queue_empty = Array.init n_queues (fun q -> R_queue_empty q);
  }

(* The producer has not completed by [now] (not issued, or in flight). *)
let[@inline] pending th now i x =
  x <> 0 && i - x >= th.retire_ptr && th.comp.(slot th (i - x)) > now

(* Serving cache level of the first pending load/atomic operand, or 0 when
   the wait is a port conflict / not memory-shaped. *)
let dep_level1 th now i x acc =
  if pending th now i x then
    let d = i - x in
    let dk = kind_of th d in
    if dk = Trace.op_load || dk = Trace.op_atomic then Char.code (Bytes.get th.svc (slot th d))
    else acc
  else acc

let dep_level th i now =
  dep_level1 th now i (dist th.dep1 i)
    (dep_level1 th now i (dist th.dep2 i) (dep_level1 th now i (dist th.dep3 i) 0))

(* Blocked on operands: attribute by the producer's kind. *)
let dep_kind1 rs th now i x acc =
  if pending th now i x then
    let d = i - x in
    let dk = kind_of th d in
    if dk = Trace.op_load || dk = Trace.op_atomic then
      rs.rs_backend.(Char.code (Bytes.get th.svc (slot th d)))
    else if dk = Trace.op_deq then rs.rs_queue_empty.(pa_of th d)
    else acc
  else acc

let dep_kind rs th i now =
  dep_kind1 rs th now i (dist th.dep1 i)
    (dep_kind1 rs th now i (dist th.dep2 i)
       (dep_kind1 rs th now i (dist th.dep3 i) rs.rs_backend.(0)))

(* Stall classification for accounting. The reason refines the 4-way
   class; [class_of_reason] maps it back so the aggregate split is
   unchanged by the finer attribution. *)
let classify rs queues now th =
  if th.issued_this_cycle > 0 then R_issue
  else if th.blocked_branch >= 0 then R_other
  else begin
    let i = th.unissued_head in
    if i < 0 then R_other (* window empty: frontend *)
    else begin
      let k = kind_of th i in
      if k = Trace.op_enq then
        let qid = pa_of th i in
        let q = queues.(qid) in
        if q.occupancy >= q.qs_capacity then rs.rs_queue_full.(qid)
        else rs.rs_backend.(dep_level th i now)
      else if k = Trace.op_deq then
        let qid = pa_of th i in
        let q = queues.(qid) in
        if q.deq_issued >= q.pushed || arrival q q.deq_issued > now then
          rs.rs_queue_empty.(qid)
        else rs.rs_backend.(dep_level th i now)
      else if k = Trace.op_barrier then R_barrier
      else dep_kind rs th i now
    end
  end

(* RA event [i]'s fetch has started and completed by [now]. *)
let[@inline] fetched ra now i =
  i < ra.next_start && Array.unsafe_get ra.fetch_done (i land ra.fd_mask) <= now

(* Slots of a ring that holds [n] entries: the next power of two, so an
   index maps to its slot with one [land]. *)
let ring_slots n =
  let rec grow s = if s >= n then s else grow (2 * s) in
  grow 1

(* Next calendar entry strictly after [now], or -1 when there is none. *)
let rec next_event events now =
  if Heap.is_empty events then -1
  else
    let t = Heap.pop events in
    if t > now then t else next_event events now

(* --- machine state per domain ----------------------------------------------

   The caches and the branch predictor are the largest state a replay
   uses: about 80k words at the default config, most of them the L3's tag
   and LRU arrays. Each domain keeps one set, and a replay resets it to
   what [Cache.create] and [Predictor.create] build instead of allocating
   it anew. A replay builds a fresh set when its config differs from the
   one the domain's set was built for (tune varies the core count), and
   when the domain's set is in use, which only a second systhread
   replaying on the same domain can cause; the latter is not kept. *)
type machine = {
  m_cfg : Config.t;
  m_caches : Cache.t;
  m_pred : Predictor.t;
  mutable m_busy : bool;
}

let machine_key : machine option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let build_machine (cfg : Config.t) ~n_threads =
  {
    m_cfg = cfg;
    m_caches = Cache.create cfg;
    m_pred =
      Predictor.create ~entries:cfg.predictor_entries
        ~history_bits:cfg.predictor_history_bits ~n_threads;
    m_busy = true;
  }

let acquire_machine cfg ~n_threads =
  let kept = Domain.DLS.get machine_key in
  let build_kept () =
    let m = build_machine cfg ~n_threads in
    kept := Some m;
    m
  in
  match !kept with
  | Some m when not m.m_busy ->
    (* nothing between the test and this write can switch systhreads *)
    m.m_busy <- true;
    if m.m_cfg = cfg then begin
      Cache.reset m.m_caches;
      Predictor.reset m.m_pred ~n_threads;
      m
    end
    else build_kept ()
  | Some _ -> build_machine cfg ~n_threads
  | None -> build_kept ()

let replay ~(cfg : Config.t) ~thread_core ~ra_core ~queue_caps ~telemetry ~faults ~watchdog
    ~cycle_budget ~caches ~pred (p : Types.pipeline) (trace : Trace.t) : result =
  let n_threads = Array.length trace.Trace.threads in
  let events = Heap.create () in
  let n_queues = trace.Trace.n_queues in
  let threads =
    Array.mapi
      (fun i (tt : Trace.thread_trace) ->
        let n = Trace.length tt in
        let slots = ring_slots (Int.min n (Int.max 16 cfg.rob_size)) in
        (* The trace's own columns, read in place and only over [0, n):
           replaying a memoized trace under many configs copies nothing. *)
        {
          th_id = i;
          th_core = thread_core.(i);
          kind = tt.Trace.kind;
          pa = tt.Trace.pa;
          dep1 = tt.Trace.dep1;
          dep2 = tt.Trace.dep2;
          dep3 = tt.Trace.dep3;
          n_ops = n;
          mask = slots - 1;
          comp = Array.make slots unset;
          wake = Array.make slots 0;
          link = Array.make slots (-1);
          svc = Bytes.make slots '\000';
          unissued_head = -1;
          unissued_tail = -1;
          dispatch_ptr = 0;
          retire_ptr = 0;
          blocked_branch = -1;
          done_ = n = 0;
          killed = false;
          stalled_now = false;
          issued_this_cycle = 0;
          scanned = 0;
          cy_issue = 0;
          cy_backend = 0;
          cy_queue = 0;
          cy_other = 0;
          aq_full = Array.make (Int.max n_queues 1) 0;
          aq_empty = Array.make (Int.max n_queues 1) 0;
          cy_barrier = 0;
          backend_lvl = Array.make 5 0;
          enq_ops = Array.make (Int.max n_queues 1) 0;
          deq_ops = Array.make (Int.max n_queues 1) 0;
        })
      trace.Trace.threads
  in
  let ra_cfgs = Array.of_list p.Types.p_ras in
  (* q_id -> capacity, precomputed once: looking each queue up with
     List.find_opt over the declarations is O(queues) per queue, O(q^2)
     total at setup, which shows up on wide replicated pipelines. *)
  let q_caps =
    let top =
      List.fold_left
        (fun acc (d : Types.queue_decl) -> Int.max acc (d.q_id + 1))
        n_queues p.Types.p_queues
    in
    let caps = Array.make (Int.max top 1) cfg.queue_depth in
    List.iter
      (fun (d : Types.queue_decl) ->
        if d.q_id >= 0 then caps.(d.q_id) <- d.q_capacity)
      p.Types.p_queues;
    (* Per-queue capacity overrides (the autotuner's "deepen q" knob).
       Taking them here instead of rewriting the queue declarations keeps
       the pipeline — and therefore Sim's compiled-program and functional-
       trace memo keys — unchanged, so a capacity move costs only a timing
       replay. *)
    List.iter
      (fun (q, cap) ->
        if q >= 0 && q < Array.length caps && cap >= 1 then caps.(q) <- cap)
      queue_caps;
    caps
  in
  let cap_of q = if q < Array.length q_caps then q_caps.(q) else cfg.queue_depth in
  let queues =
    Array.init (Int.max n_queues 1) (fun q ->
        {
          qs_capacity = cap_of q;
          arrived = Array.make (cap_of q + 1) 0;
          pushed = 0;
          next_slot = 0;
          deq_issued = 0;
          ra_consumed = 0;
          occupancy = 0;
        })
  in
  (* Per-queue occupancy histograms: bucket [o] counts the cycles queue [q]
     spent holding exactly [o] elements. Advanced with the same deltas as
     stall accounting, so each histogram partitions the run's cycles. *)
  let occ_hist =
    Array.init (Int.max n_queues 1) (fun q ->
        Array.make (queues.(q).qs_capacity + 1) 0)
  in
  let fd_slots = ring_slots cfg.ra_mshrs in
  let ras =
    Array.mapi
      (fun r (rt : Trace.ra_trace) ->
        let n = Trace.ra_length rt in
        {
          ra_core = (if r < Array.length ra_core then ra_core.(r) else 0);
          ra_in_q = ra_cfgs.(r).Types.ra_in;
          ra_out_q = ra_cfgs.(r).Types.ra_out;
          rin_seq = rt.Trace.rt_in_seq;
          rout_seq = rt.Trace.rt_out_seq;
          raddr = rt.Trace.rt_addr;
          rn = n;
          fetch_done = Array.make fd_slots unset;
          fd_mask = fd_slots - 1;
          next_start = 0;
          next_deliver = 0;
          outstanding = 0;
          fetches = 0;
        })
      trace.Trace.ras
  in
  (* Barrier groups: (id, occurrence) -> members, and each barrier op's
     group, keyed by [op * n_threads + thread]. A barrier's occurrence
     counts the earlier barriers with its id in its thread, in program
     order. *)
  let barrier_total = Hashtbl.create 8 and barrier_group = Hashtbl.create 8 in
  Array.iter
    (fun th ->
      let seen = Hashtbl.create 4 in
      for i = 0 to th.n_ops - 1 do
        if kind_of th i = Trace.op_barrier then begin
          let id = pa_of th i in
          let occ = try Hashtbl.find seen id with Not_found -> 0 in
          Hashtbl.replace seen id (occ + 1);
          let key = (id, occ) in
          Hashtbl.replace barrier_group ((i * n_threads) + th.th_id) key;
          let c = try Hashtbl.find barrier_total key with Not_found -> 0 in
          Hashtbl.replace barrier_total key (c + 1)
        end
      done)
    threads;
  (* Arrival count is kept alongside the list so each arrival is O(1)
     instead of List.length per arrival (O(n^2) per barrier group). *)
  let barrier_arrived : (int * int, int * (thread_state * int) list) Hashtbl.t =
    Hashtbl.create 8
  in
  (* Core thread lists. *)
  let cores = Array.make cfg.n_cores [] in
  Array.iter (fun th -> cores.(th.th_core) <- th :: cores.(th.th_core)) threads;
  let cores = Array.map (fun l -> Array.of_list (List.rev l)) cores in
  let n_cores_used =
    Array.fold_left (fun acc c -> if Array.length c > 0 then acc + 1 else acc) 0 cores
  in
  let queue_ops = ref 0 in
  let total_dispatched = ref 0 in
  let now = ref 0 in
  let progress = ref false in
  (* Wake-event filter. The fast-forward loop discards calendar entries
     with t <= now, and a cycle that makes progress advances [now] by one
     before the calendar is consulted again — so an event at t <= now+1
     pushed from a path that also sets [progress] this cycle can never be
     the entry that wakes the simulator. Skipping those pushes keeps the
     calendar heap small on issue-heavy workloads. Only used on paths that
     unconditionally set [progress]; paths that may not make progress
     (dropped enqueues, fault stalls) push unconditionally. The entries
     at or before [now] that a run of progress cycles leaves behind can
     never wake the loop either: each push first drops them, so the
     calendar holds only future events and its size does not grow with
     the trace. *)
  let schedule_wake t =
    if t > !now + 1 then begin
      while (not (Heap.is_empty events)) && Heap.min events <= !now do
        ignore (Heap.pop events)
      done;
      Heap.push events t
    end
  in
  (* Per-core ROB share, recomputed only when some thread finishes
     ([done_] flips only in [retire]). *)
  let core_share = Array.make (Int.max cfg.n_cores 1) cfg.rob_size in
  let shares_dirty = ref true in
  let recompute_shares () =
    Array.iteri
      (fun ci ct ->
        let active =
          Array.fold_left (fun acc t -> if t.done_ then acc else acc + 1) 0 ct
        in
        core_share.(ci) <- Int.max 16 (cfg.rob_size / Int.max 1 active))
      cores;
    shares_dirty := false
  in
  (* Threads still running. The per-cycle sweeps (issued_this_cycle reset,
     retire, stall accounting) iterate this set instead of all threads, so
     long-finished threads cost nothing; it is pruned at cycle end whenever
     some thread completed. *)
  let live =
    ref (Array.of_list (List.filter (fun th -> not th.done_) (Array.to_list threads)))
  in
  let live_dirty = ref false in
  (* The last cycle an op retired: feeds the watchdog that separates
     livelock from budget exhaustion. *)
  let last_retire = ref 0 in

  (* Telemetry probes: queue occupancy and RA outstanding fetches are gauges
     (also exported as Chrome counter tracks); everything cumulative is a
     counter, sampled as deltas. The default [None] path costs one match per
     hook site and allocates nothing. *)
  (match telemetry with
  | None -> ()
  | Some tel ->
    let stage_names = Array.of_list (List.map (fun (s : Types.stage) -> s.Types.s_name) p.Types.p_stages) in
    Array.iteri
      (fun i th ->
        let name =
          if i < Array.length stage_names then stage_names.(i)
          else Printf.sprintf "thread%d" i
        in
        Telemetry.set_thread_meta tel ~thread:i ~core:th.th_core ~name)
      threads;
    Array.iteri
      (fun q qs ->
        if q < n_queues then begin
          Telemetry.register_gauge tel
            ~name:(Printf.sprintf "queue%d.occupancy" q)
            (fun () -> qs.occupancy);
          Telemetry.register_counter tel
            ~name:(Printf.sprintf "queue%d.full_stall_cycles" q)
            (fun () ->
              Array.fold_left (fun acc th -> acc + th.aq_full.(q)) 0 threads);
          Telemetry.register_counter tel
            ~name:(Printf.sprintf "queue%d.empty_stall_cycles" q)
            (fun () ->
              Array.fold_left (fun acc th -> acc + th.aq_empty.(q)) 0 threads)
        end)
      queues;
    Array.iteri
      (fun r ra ->
        Telemetry.register_gauge tel
          ~name:(Printf.sprintf "ra%d.outstanding" r)
          (fun () -> ra.outstanding);
        Telemetry.register_counter tel
          ~name:(Printf.sprintf "ra%d.fetches" r)
          (fun () -> ra.fetches))
      ras;
    Array.iter
      (fun th ->
        let n name read = Telemetry.register_counter tel ~name:(Printf.sprintf "thread%d.%s" th.th_id name) read in
        n "issue_cycles" (fun () -> th.cy_issue);
        n "backend_cycles" (fun () -> th.cy_backend);
        n "queue_cycles" (fun () -> th.cy_queue);
        n "other_cycles" (fun () -> th.cy_other);
        n "retired" (fun () -> th.retire_ptr))
      threads;
    let c name read = Telemetry.register_counter tel ~name read in
    c "cache.l1_hits" (fun () -> (Cache.counters caches).Cache.c_l1_hits);
    c "cache.l1_misses" (fun () -> (Cache.counters caches).Cache.c_l1_misses);
    c "cache.l2_hits" (fun () -> (Cache.counters caches).Cache.c_l2_hits);
    c "cache.l2_misses" (fun () -> (Cache.counters caches).Cache.c_l2_misses);
    c "cache.l3_hits" (fun () -> (Cache.counters caches).Cache.c_l3_hits);
    c "cache.l3_misses" (fun () -> (Cache.counters caches).Cache.c_l3_misses);
    c "cache.dram" (fun () -> (Cache.counters caches).Cache.c_dram);
    c "cache.prefetches" (fun () -> (Cache.counters caches).Cache.c_prefetches);
    c "branch.lookups" (fun () -> pred.Predictor.lookups);
    c "branch.mispredicts" (fun () -> pred.Predictor.mispredicts);
    c "engine.queue_ops" (fun () -> !queue_ops);
    c "engine.dispatched" (fun () -> !total_dispatched));

  (* Hot-path accesses below use unchecked indexing: every op index is
     drawn from the unissued list or the retire/dispatch pointers (all
     < [n_ops], the number of ops every trace column holds), every ring
     slot is an index [land] its ring's mask, and every dependence is a
     distance of at least 1 back, so it names an earlier op of the same
     thread; the ring slot of one is read only while it is in the window
     (at or above [retire_ptr]), which a saturated distance never reaches
     (see [run]'s window guard). Nothing below allocates per simulated
     cycle. *)
  (* Dispatch op [i] into its ring slot and onto the unissued list. *)
  let push_unissued th i =
    let s = slot th i in
    Array.unsafe_set th.comp s unset;
    Array.unsafe_set th.wake s 0;
    Bytes.unsafe_set th.svc s '\000';
    Array.unsafe_set th.link s (-1);
    if th.unissued_head = -1 then th.unissued_head <- i
    else Array.unsafe_set th.link (slot th th.unissued_tail) i;
    th.unissued_tail <- i
  in

  let retire th =
    let before = th.retire_ptr in
    while
      th.retire_ptr < th.dispatch_ptr
      &&
      Array.unsafe_get th.comp (slot th th.retire_ptr) <= !now
    do
      th.retire_ptr <- th.retire_ptr + 1;
      progress := true
    done;
    if th.retire_ptr <> before then last_retire := !now;
    (match faults with
    | Some f ->
      if
        (not th.done_)
        && Faults.should_kill f ~thread:th.th_id ~retired:th.retire_ptr
      then th.killed <- true
    | None -> ());
    if th.retire_ptr >= th.n_ops && not th.done_ then begin
      th.done_ <- true;
      live_dirty := true;
      shares_dirty := true;
      (match faults with
      | Some f -> Faults.count_stalls f ~thread:th.th_id ~until:!now
      | None -> ());
      (match telemetry with
      | Some tel -> Telemetry.end_thread_state tel ~thread:th.th_id ~cycle:!now
      | None -> ());
      progress := true
    end
  in

  (* The front end is shared: a core's dispatch bandwidth is split across
     its active threads each cycle. Dispatches at most [budget] ops and
     returns how many it dispatched. *)
  let dispatch th budget =
    if th.blocked_branch >= 0 then begin
      (* a blocked branch dispatched last, so no dispatch has reused its
         slot even if it has retired *)
      let c = Array.unsafe_get th.comp (slot th th.blocked_branch) in
      if c <> unset && !now >= c + cfg.mispredict_penalty then begin
        th.blocked_branch <- -1;
        progress := true
      end
    end;
    let n = ref 0 in
    if th.blocked_branch < 0 then begin
      let continue = ref true in
      while
        !continue && !n < budget && th.dispatch_ptr < th.n_ops && window_room core_share th
      do
        let i = th.dispatch_ptr in
        th.dispatch_ptr <- i + 1;
        push_unissued th i;
        incr n;
        progress := true;
        if kind_of th i = Trace.op_branch then begin
          let pa = pa_of th i in
          let correct =
            Predictor.predict_update pred ~thread:th.th_id ~pc:(pa asr 1)
              ~taken:(pa land 1 = 1)
          in
          let correct =
            match faults with
            | Some f -> correct && not (Faults.poison f)
            | None -> correct
          in
          if not correct then begin
            th.blocked_branch <- i;
            continue := false
          end
        end
      done
    end;
    !n
  in

  (* Each core's round-robin start this cycle, [now mod] its thread count:
     dispatch computes it and issue reuses it. *)
  let rr_start = Array.make (Array.length cores) 0 in
  (* Memory ports left on the core being scanned; reset per core per cycle
     by [issue_core]. *)
  let mem_budget = ref 0 in
  (* Bookkeeping once op [i] of kind [k] has issued with [latency] (-1 and
     -2: a barrier, whose completion is set when its group completes). *)
  let issued th i k ~is_mem latency =
    if is_mem then decr mem_budget;
    (match latency with
    | -1 | -2 -> ()
    | l ->
      Array.unsafe_set th.comp (slot th i) (!now + l);
      schedule_wake (!now + l));
    if k = Trace.op_branch && th.blocked_branch = i then
      schedule_wake (Array.unsafe_get th.comp (slot th i) + cfg.mispredict_penalty);
    th.issued_this_cycle <- th.issued_this_cycle + 1;
    progress := true;
    -1
  in
  let spike level =
    match faults with Some f -> Faults.spike f ~level | None -> 0
  in
  (* Issue one op if it is ready; returns -1 if issued, else the earliest
     cycle a retry could succeed (see [wake] on [thread_state]). *)
  let try_issue th i =
    let k = kind_u th i in
    let is_mem = k = Trace.op_load || k = Trace.op_store || k = Trace.op_atomic || k = Trace.op_prefetch in
    if is_mem && !mem_budget <= 0 then !now + 1
    else if not (deps_met th i !now) then dep_wake th i !now
    else if k = Trace.op_alu || k = Trace.op_branch then issued th i k ~is_mem 1
    else if k = Trace.op_load then begin
      let r = Cache.access caches ~core:th.th_core ~addr:(pa_of th i) ~now:!now in
      Bytes.unsafe_set th.svc (slot th i) (Char.unsafe_chr r.Cache.level_hit);
      issued th i k ~is_mem (r.Cache.latency + spike r.Cache.level_hit)
    end
    else if k = Trace.op_store then begin
      ignore (Cache.access caches ~core:th.th_core ~addr:(pa_of th i) ~now:!now);
      issued th i k ~is_mem 1 (* retires through the store buffer *)
    end
    else if k = Trace.op_atomic then begin
      (* locked read-modify-write: pays the access plus serialization *)
      let r = Cache.access caches ~core:th.th_core ~addr:(pa_of th i) ~now:!now in
      Bytes.unsafe_set th.svc (slot th i) (Char.unsafe_chr r.Cache.level_hit);
      issued th i k ~is_mem (r.Cache.latency + 18 + spike r.Cache.level_hit)
    end
    else if k = Trace.op_prefetch then begin
      Cache.prefetch caches ~core:th.th_core ~addr:(pa_of th i) ~now:!now;
      issued th i k ~is_mem 1
    end
    else if k = Trace.op_enq then begin
      let qid = pa_of th i in
      let q = queues.(qid) in
      if q.occupancy >= q.qs_capacity then !now
      else begin
        match faults with
        | Some f when Faults.drop_enq f ~queue:qid ->
          (* transient enqueue failure: the op retries (and the fault
             re-rolls) on a later issue attempt; keep the clock moving
             so a long streak of drops reads as livelock rather than an
             eventless deadlock *)
          Heap.push events (!now + 1);
          !now
        | _ ->
          q.occupancy <- q.occupancy + 1;
          arrive q (!now + 1);
          incr queue_ops;
          th.enq_ops.(qid) <- th.enq_ops.(qid) + 1;
          (match faults with
          | Some f
            when q.occupancy < q.qs_capacity
                 && Faults.dup_enq f ~queue:qid ->
            (* phantom duplicate: occupies a slot until the end of the
               run — no consumer op in the trace will ever drain it *)
            q.occupancy <- q.occupancy + 1;
            arrive q (!now + 1)
          | _ -> ());
          issued th i k ~is_mem 1
      end
    end
    else if k = Trace.op_deq then begin
      let qid = pa_of th i in
      let q = queues.(qid) in
      if q.deq_issued >= q.pushed then !now + 1 (* starved *)
      else begin
        let t = arrival q q.deq_issued in
        if t <= !now then begin
          q.deq_issued <- q.deq_issued + 1;
          q.occupancy <- q.occupancy - 1;
          incr queue_ops;
          th.deq_ops.(qid) <- th.deq_ops.(qid) + 1;
          issued th i k ~is_mem 1
        end
        else
          (* the head arrival is still in flight: its arrival time bounds
             the earliest useful retry *)
          t
      end
    end
    else if k = Trace.op_barrier then begin
      let key = Hashtbl.find barrier_group ((i * n_threads) + th.th_id) in
      let n, arrived =
        try Hashtbl.find barrier_arrived key with Not_found -> (0, [])
      in
      let n = n + 1 and arrived = (th, i) :: arrived in
      if n = Hashtbl.find barrier_total key then begin
        (* all threads resume after a fixed resynchronization penalty;
           the group is complete, so drop its arrival state rather than
           retaining every (thread, op) list for the whole run *)
        Hashtbl.remove barrier_arrived key;
        let release = !now + 40 in
        List.iter
          (fun (th', i') ->
            th'.comp.(slot th' i') <- release;
            schedule_wake release)
          arrived;
        issued th i k ~is_mem (-1) (* comp already set *)
      end
      else begin
        Hashtbl.replace barrier_arrived key (n, arrived);
        issued th i k ~is_mem (-2) (* arrived; completion set when group completes *)
      end
    end
    else issued th i k ~is_mem 1
  in

  (* One walk over a thread's probe prefix: probe its first four unissued
     ops in order while issue slots remain, unlinking each op that issues.
     Returns how many ops issued. *)
  let walk th budget =
    let now = !now in
    let prev = ref (-1) and node = ref th.unissued_head in
    let steps = ref 0 and n_issued = ref 0 in
    while !node >= 0 && !steps < 4 && !n_issued < budget do
      let i = !node in
      let s = slot th i in
      let next = Array.unsafe_get th.link s in
      incr steps;
      th.scanned <- th.scanned + 1;
      let w = Array.unsafe_get th.wake s in
      let k = kind_u th i in
      let w =
        if
          w > now
          || k = Trace.op_enq
             &&
             let q = queues.(pa_u th i) in
             q.occupancy >= q.qs_capacity
        then
          (* cached or recheckable failure: [try_issue] would fail with no
             side effects (a full-queue enqueue draws no fault roll), so
             skip it, but charge the scan budgets as a probe would *)
          w
        else
          let w = try_issue th i in
          if w >= 0 then Array.unsafe_set th.wake s w;
          w
      in
      if w < 0 then begin
        incr n_issued;
        if !prev < 0 then th.unissued_head <- next
        else Array.unsafe_set th.link (slot th !prev) next;
        if th.unissued_tail = i then th.unissued_tail <- !prev
      end
      else prev := i;
      node := next
    done;
    !n_issued
  in
  let issue_core ci core_threads =
    let nth = Array.length core_threads in
    if nth > 0 then begin
      let issue_budget = ref cfg.issue_width in
      mem_budget := cfg.mem_ports;
      let start = Array.unsafe_get rr_start ci in
      (* Interleave threads round-robin, walking each thread's probe
         prefix; stop when the issue budget is spent. *)
      let made_progress = ref true in
      while !made_progress && !issue_budget > 0 do
        made_progress := false;
        let ti = ref start in
        for _ = 1 to nth do
          let th = Array.unsafe_get core_threads !ti in
          if
            (not th.done_)
            && (not (inactive th))
            && !issue_budget > 0
            && th.scanned < cfg.sched_scan
          then begin
            let n = walk th !issue_budget in
            if n > 0 then begin
              issue_budget := !issue_budget - n;
              made_progress := true
            end
          end;
          incr ti;
          if !ti = nth then ti := 0
        done
      done
    end
  in

  (* RA engines: deliver in order, start new fetches up to the MSHR limit. *)
  let advance_ra ra =
    (* deliveries *)
    let continue = ref true in
    while !continue && ra.next_deliver < ra.rn do
      let i = ra.next_deliver in
      if get32 ra.rout_seq i < 0 then begin
        (* consume-only entry: no output to deliver *)
        if fetched ra !now i then begin
          ra.next_deliver <- i + 1;
          ra.outstanding <- ra.outstanding - 1;
          progress := true
        end
        else continue := false
      end
      else begin
        let out = queues.(ra.ra_out_q) in
        if fetched ra !now i && out.occupancy < out.qs_capacity then begin
          out.occupancy <- out.occupancy + 1;
          arrive out (!now + 1);
          schedule_wake (!now + 1);
          ra.next_deliver <- i + 1;
          ra.outstanding <- ra.outstanding - 1;
          progress := true
        end
        else continue := false
      end
    done;
    (* starts *)
    let continue = ref true in
    while !continue && ra.next_start < ra.rn && ra.outstanding < cfg.ra_mshrs do
      let i = ra.next_start in
      let inq = queues.(ra.ra_in_q) in
      let in_seq = get32 ra.rin_seq i in
      (* several scan outputs share one input element; only the first
         consumes it *)
      let first_use = i = 0 || get32 ra.rin_seq (i - 1) <> in_seq in
      let needed = if first_use then inq.ra_consumed + 1 else inq.ra_consumed in
      let input_ready =
        needed <= inq.pushed && (needed = 0 || arrival inq (needed - 1) <= !now)
      in
      if input_ready then begin
        if first_use then begin
          inq.ra_consumed <- inq.ra_consumed + 1;
          inq.occupancy <- inq.occupancy - 1
        end;
        let addr = get32 ra.raddr i in
        let lat =
          if addr < 0 then 1
          else begin
            ra.fetches <- ra.fetches + 1;
            let base = (Cache.access caches ~core:ra.ra_core ~addr ~now:!now).Cache.latency in
            base + spike 0
          end
        in
        Array.unsafe_set ra.fetch_done (i land ra.fd_mask) (!now + lat);
        schedule_wake (!now + lat);
        ra.outstanding <- ra.outstanding + 1;
        ra.next_start <- i + 1;
        progress := true
      end
      else continue := false
    done
  in

  let reasons = make_reasons (Array.length queues) in
  let state_name = function
    | Sc_issue -> "issue"
    | Sc_backend -> "backend"
    | Sc_queue -> "queue"
    | Sc_other -> "other"
  in
  let account delta =
    for q = 0 to n_queues - 1 do
      let h = occ_hist.(q) in
      let b = Int.min queues.(q).occupancy (Array.length h - 1) in
      h.(b) <- h.(b) + delta
    done;
    let lv = !live in
    for j = 0 to Array.length lv - 1 do
      let th = lv.(j) in
      if not th.done_ then begin
        (* live set not yet pruned this cycle, so recheck done_ *)
        let r = classify reasons queues !now th in
        (match r with
        | R_issue -> th.cy_issue <- th.cy_issue + delta
        | R_backend lvl ->
          th.cy_backend <- th.cy_backend + delta;
          th.backend_lvl.(lvl) <- th.backend_lvl.(lvl) + delta
        | R_queue_full q ->
          th.cy_queue <- th.cy_queue + delta;
          th.aq_full.(q) <- th.aq_full.(q) + delta
        | R_queue_empty q ->
          th.cy_queue <- th.cy_queue + delta;
          th.aq_empty.(q) <- th.aq_empty.(q) + delta
        | R_barrier ->
          th.cy_queue <- th.cy_queue + delta;
          th.cy_barrier <- th.cy_barrier + delta
        | R_other -> th.cy_other <- th.cy_other + delta);
        match telemetry with
        | Some tel ->
          Telemetry.set_thread_state tel ~thread:th.th_id ~cycle:!now
            (state_name (class_of_reason r))
        | None -> ()
      end
    done
  in

  (* Build and raise the structured failure report (cold path). Blocked-on
     states come from the live engine state; the cyclic wait chain from the
     static producer/consumer wiring of the pipeline text. *)
  let fail_run kind =
    let names = Forensics.agent_names p in
    (* The oldest unissued op in the window is the root cause and takes
       priority over the frontend state: a stage wedged on a full-queue
       enqueue usually also has an unresolved branch stuck behind it, and
       attributing that to the frontend would hide the queue edge from the
       wait-cycle finder. *)
    let blocked_of th =
      if th.done_ then Forensics.Finished
      else if th.killed then Forensics.Killed
      else begin
        let i = th.unissued_head in
        if i < 0 then
          if th.blocked_branch >= 0 then Forensics.On_frontend
          else if th.retire_ptr < th.dispatch_ptr then Forensics.On_memory
          else Forensics.On_frontend
        else
          let k = kind_of th i in
          let qid = pa_of th i in
          if k = Trace.op_enq then begin
            let q = queues.(qid) in
            if q.occupancy >= q.qs_capacity then Forensics.On_queue_full qid
            else Forensics.Running
          end
          else if k = Trace.op_deq then begin
            let q = queues.(qid) in
            if q.deq_issued >= q.pushed || arrival q q.deq_issued > !now then
              Forensics.On_queue_empty qid
            else Forensics.Running
          end
          else if k = Trace.op_barrier then Forensics.On_barrier qid
          else if th.blocked_branch >= 0 then Forensics.On_frontend
          else Forensics.On_memory
      end
    in
    let thread_agents =
      Array.to_list
        (Array.map
           (fun th ->
             {
               Forensics.ag_id = th.th_id;
               ag_name =
                 (if th.th_id < Array.length names then names.(th.th_id)
                  else Printf.sprintf "thread%d" th.th_id);
               ag_blocked = blocked_of th;
               ag_done_ops = th.retire_ptr;
               ag_total_ops = th.n_ops;
             })
           threads)
    in
    let ra_agents =
      Array.to_list
        (Array.mapi
           (fun r ra ->
             let id = n_threads + r in
             let blocked =
               if ra.next_deliver >= ra.rn then Forensics.Finished
               else if ra.next_deliver < ra.next_start then begin
                 let out = queues.(ra.ra_out_q) in
                 if out.occupancy >= out.qs_capacity then
                   Forensics.On_queue_full ra.ra_out_q
                 else Forensics.On_memory
               end
               else Forensics.On_queue_empty ra.ra_in_q
             in
             {
               Forensics.ag_id = id;
               ag_name =
                 (if id < Array.length names then names.(id)
                  else Printf.sprintf "ra%d" r);
               ag_blocked = blocked;
               ag_done_ops = ra.next_deliver;
               ag_total_ops = ra.rn;
             })
           ras)
    in
    let agents = thread_agents @ ra_agents in
    let wait_cycle =
      match kind with
      | Forensics.Budget_exhausted -> []
      | Forensics.Deadlock | Forensics.Livelock -> Forensics.wait_cycle p agents
    in
    let queue_snaps =
      List.init n_queues (fun q ->
          {
            Forensics.qo_id = q;
            qo_occupancy = queues.(q).occupancy;
            qo_capacity = queues.(q).qs_capacity;
          })
    in
    let injected =
      match faults with
      | Some f ->
        Array.iter
          (fun th -> if not th.done_ then Faults.count_stalls f ~thread:th.th_id ~until:!now)
          threads;
        Faults.total f
      | None -> 0
    in
    let diagnosis =
      (match kind with
      | Forensics.Deadlock when wait_cycle <> [] -> (
        [
          "every agent on the cyclic wait chain waits on a queue that only \
           another agent on the chain can move; the bounded queue network \
           can never make progress";
        ]
        @
        match
          List.filter_map
            (fun (_, q) ->
              if q >= 0 then Some (q, queues.(q).qs_capacity) else None)
            wait_cycle
        with
        | [] -> []
        | qs ->
          let q, cap = List.fold_left (fun (bq, bc) (q, c) -> if c < bc then (q, c) else (bq, bc)) (List.hd qs) qs in
          [
            Printf.sprintf
              "smallest queue on the chain is q%d (capacity %d); raising \
               its capacity may break the cycle"
              q cap;
          ])
      | Forensics.Deadlock -> []
      | Forensics.Livelock ->
        [
          Printf.sprintf
            "cycles kept advancing but no op retired in the last %d cycles \
             (watchdog window): agents are active yet none completes work"
            watchdog;
        ]
      | Forensics.Budget_exhausted ->
        [
          Printf.sprintf
            "ops were still retiring when the %d-cycle budget ran out — \
             likely an undersized budget, not a hang; re-run with a larger \
             cycle budget"
            cycle_budget;
        ])
      @ Array.to_list
          (Array.map
             (fun th ->
               Printf.sprintf
                 "%s was killed by fault injection after retiring %d ops; \
                  agents downstream of it can never be unblocked"
                 (if th.th_id < Array.length names then names.(th.th_id)
                  else Printf.sprintf "thread%d" th.th_id)
                 th.retire_ptr)
             (Array.of_list
                (List.filter (fun th -> th.killed) (Array.to_list threads))))
    in
    Forensics.fail
      {
        Forensics.fr_kind = kind;
        fr_pipeline = p.Types.p_name;
        fr_at = !now;
        fr_agents = agents;
        fr_queues = queue_snaps;
        fr_wait_cycle = wait_cycle;
        fr_injected = injected;
        fr_diagnosis = diagnosis;
      }
  in

  let faulty = match faults with Some _ -> true | None -> false in
  let guard = ref 0 in
  while Array.length !live > 0 do
    if !now > cycle_budget then
      fail_run
        (if !now - !last_retire > watchdog then Forensics.Livelock
         else Forensics.Budget_exhausted)
    else if !now - !last_retire > watchdog then fail_run Forensics.Livelock;
    progress := false;
    let lv = !live in
    (match faults with
    | None -> ()
    | Some f ->
      for j = 0 to Array.length lv - 1 do
        let th = lv.(j) in
        let rel = Faults.stall_release f ~thread:th.th_id ~now:!now in
        th.stalled_now <- rel >= 0;
        if rel >= 0 then Heap.push events rel
      done);
    for j = 0 to Array.length lv - 1 do
      let th = lv.(j) in
      th.issued_this_cycle <- 0;
      th.scanned <- 0;
      (* without faults, a retire with nothing to retire does nothing *)
      if (not th.done_) && (not (inactive th)) && (faulty || can_retire th !now) then retire th
    done;
    if !shares_dirty then recompute_shares ();
    for ci = 0 to Array.length cores - 1 do
      let core_threads = cores.(ci) in
      let nth = Array.length core_threads in
      if nth > 0 then begin
        let budget = ref cfg.dispatch_width in
        let start = !now mod nth in
        Array.unsafe_set rr_start ci start;
        (* round-robin the shared front-end bandwidth, giving each live
           thread a fair share plus any slack left by stalled threads *)
        let share = Int.max 1 (cfg.dispatch_width / Int.max 1 nth) in
        let ti = ref start in
        for _ = 1 to nth do
          let th = Array.unsafe_get core_threads !ti in
          if (not th.done_) && (not (inactive th)) && can_dispatch core_share th then
            budget := !budget - dispatch th (Int.min share !budget);
          incr ti;
          if !ti = nth then ti := 0
        done;
        (* leftover bandwidth flows to the threads that can still use it,
           in the same round-robin order, until it is exhausted *)
        let off = ref 0 in
        ti := start;
        while !budget > 0 && !off < nth do
          let th = Array.unsafe_get core_threads !ti in
          if (not th.done_) && (not (inactive th)) && can_dispatch core_share th then
            budget := !budget - dispatch th !budget;
          incr off;
          incr ti;
          if !ti = nth then ti := 0
        done;
        (* per-cycle dispatch-bandwidth conservation: a core can never
           dispatch more than its front-end width in one cycle *)
        let used = cfg.dispatch_width - !budget in
        assert (used >= 0 && used <= cfg.dispatch_width);
        total_dispatched := !total_dispatched + used
      end
    done;
    for ci = 0 to Array.length cores - 1 do
      issue_core ci (Array.unsafe_get cores ci)
    done;
    for r = 0 to Array.length ras - 1 do
      advance_ra (Array.unsafe_get ras r)
    done;
    account 1;
    (match telemetry with
    | Some tel -> Telemetry.maybe_sample tel ~cycle:!now
    | None -> ());
    if !progress then begin
      incr now;
      guard := 0
    end
    else begin
      (* fast-forward to the next event, but no further than the first
         cycle past the budget or the watchdog window, where the run fails *)
      let t = next_event events !now in
      if t >= 0 then begin
        let t = if t > cycle_budget then cycle_budget + 1 else t in
        let t = if t - !last_retire > watchdog then !last_retire + watchdog + 1 else t in
        account (t - !now - 1);
        now := t
      end
      else begin
        (* no pending event and no progress: once transient effects are
           given a few cycles to settle, this is a true deadlock — nothing
           can ever run again *)
        incr guard;
        if !guard > 4 then fail_run Forensics.Deadlock;
        incr now
      end
    end;
    if !live_dirty then begin
      live :=
        Array.of_list (List.filter (fun th -> not th.done_) (Array.to_list !live));
      live_dirty := false
    end
  done;
  (match telemetry with
  | Some tel -> Telemetry.finish tel ~cycle:!now
  | None -> ());
  let sum f = Array.fold_left (fun acc th -> acc + f th) 0 threads in
  let per f = Array.map f threads in
  let attribution =
    {
      at_queues =
        Array.init n_queues (fun q ->
            {
              qa_id = q;
              qa_capacity = queues.(q).qs_capacity;
              qa_full = per (fun th -> th.aq_full.(q));
              qa_empty = per (fun th -> th.aq_empty.(q));
              qa_enqs = per (fun th -> th.enq_ops.(q));
              qa_deqs = per (fun th -> th.deq_ops.(q));
              qa_occ_hist = Array.copy occ_hist.(q);
            });
      at_issue = per (fun th -> th.cy_issue);
      at_backend = per (fun th -> th.cy_backend);
      at_queue = per (fun th -> th.cy_queue);
      at_other = per (fun th -> th.cy_other);
      at_barrier = per (fun th -> th.cy_barrier);
      at_backend_level = per (fun th -> Array.copy th.backend_lvl);
    }
  in
  {
    cycles = !now;
    instrs = sum (fun th -> th.n_ops);
    issue_cycles = sum (fun th -> th.cy_issue);
    backend_cycles = sum (fun th -> th.cy_backend);
    queue_cycles = sum (fun th -> th.cy_queue);
    other_cycles = sum (fun th -> th.cy_other);
    cache = Cache.counters caches;
    branch_lookups = pred.Predictor.lookups;
    branch_mispredicts = pred.Predictor.mispredicts;
    queue_ops = !queue_ops;
    ra_fetches = Array.fold_left (fun acc r -> acc + r.fetches) 0 ras;
    n_threads;
    n_cores_used;
    attribution;
  }

let run ?(cfg = Config.default) ?thread_core ?(ra_core = [||]) ?(queue_caps = []) ?telemetry
    ?faults ?(watchdog = default_watchdog) ?(cycle_budget = default_cycle_budget)
    (p : Types.pipeline) (trace : Trace.t) : result =
  let n_threads = Array.length trace.Trace.threads in
  let thread_core =
    match thread_core with
    | Some tc -> tc
    | None -> default_thread_core cfg n_threads
  in
  (* The window guard: a thread's window holds at most [max 16 rob_size]
     ops, so while that is below [Trace.max_distance], a producer that far
     back has retired and a saturated dependence decodes to an op that has
     retired too. *)
  if Int.max 16 cfg.rob_size >= Trace.max_distance then
    invalid_arg
      (Printf.sprintf "Engine.run: rob_size %d: the window must hold fewer than %d ops"
         cfg.rob_size Trace.max_distance);
  let m = acquire_machine cfg ~n_threads in
  Fun.protect
    ~finally:(fun () -> m.m_busy <- false)
    (fun () ->
      replay ~cfg ~thread_core ~ra_core ~queue_caps ~telemetry ~faults ~watchdog ~cycle_budget
        ~caches:m.m_caches ~pred:m.m_pred p trace)
