(* A reference stepper for the timing engine: the oracle that
   [Pipette.Engine.run]'s shortcuts are checked against.

   It replays a trace on the same machine model as the engine ([Config],
   [Cache], [Predictor] and [Faults] are shared, and so are the input and
   output types: [Trace], [Engine.result] and [Forensics]), but it shares
   none of [Engine.run]'s code. It has neither of the engine's skips:

   - it advances one cycle at a time, with no event calendar to jump over
     cycles in which nothing happens, and classifies every live thread's
     stall on every cycle;
   - it probes every op in a thread's probe prefix on every walk, with no
     per-op wake cycle.

   It also keeps per-op state in trace-length arrays, read with checked
   indexing, and finds a probe prefix (the oldest four dispatched ops not
   yet issued) by scanning the thread's window in program order.

   A run that stops making progress is declared deadlocked after five
   cycles without progress and with nothing pending, where "pending" is
   read off the state: an issued op or a branch redirect that completes
   later, a reference-accelerator fetch in flight, a force-stalled thread,
   or an enqueue dropped this cycle (it retries next cycle).

   Fault-injected stall cycles are counted one cycle at a time, into the
   plan's [c_stall_cycles]: every cycle a live thread spends inside one of
   its stall windows, up to the cycle it finishes or the run fails.

   It is slow, and meant for the small traces of the tests. *)

open Phloem_ir
module Engine = Pipette.Engine
module Config = Pipette.Config
module Cache = Pipette.Cache
module Predictor = Pipette.Predictor
module Faults = Pipette.Faults

let unset = max_int

type thread = {
  id : int;
  core : int;
  tr : Trace.thread_trace;
  n : int;
  comp : int array; (* completion cycle per op, [unset] until known *)
  issued : bool array;
  svc : int array; (* cache level that served each load or atomic *)
  mutable dispatched : int;
  mutable retired : int;
  mutable branch : int; (* mispredicted branch blocking dispatch, or -1 *)
  mutable finished : bool;
  mutable killed : bool;
  mutable stalled : bool;
  mutable issued_now : int;
  mutable cy_issue : int;
  mutable cy_backend : int;
  mutable cy_queue : int;
  mutable cy_other : int;
  mutable cy_barrier : int;
  backend_lvl : int array;
  aq_full : int array;
  aq_empty : int array;
  enq_ops : int array;
  deq_ops : int array;
}

type queue = {
  cap : int;
  mutable log : int array; (* arrival cycle of every element ever enqueued *)
  mutable pushed : int;
  mutable deq_issued : int;
  mutable ra_consumed : int;
  mutable occ : int;
}

type ra = {
  ra_core : int;
  inq : int;
  outq : int;
  rt : Trace.ra_trace;
  rn : int;
  fetch_done : int array;
  mutable next_start : int;
  mutable next_deliver : int;
  mutable outstanding : int;
  mutable fetches : int;
}

(* --- checked trace reads ---------------------------------------------- *)

let op th i =
  if i < 0 || i >= th.n then
    invalid_arg (Printf.sprintf "Stepper: op %d of thread %d is outside its %d ops" i th.id th.n)

let kind th i =
  op th i;
  Char.code (Bytes.get th.tr.Trace.kind i)

let pa th i =
  op th i;
  Int32.to_int (Bytes.get_int32_ne th.tr.Trace.pa (4 * i))

(* The producers of op [i], in column order dep1, dep2, dep3. A column
   holds the distance back, 0 for none; a saturated distance names an op at
   least that far back, which must have retired: the window holds fewer
   ops than [Trace.max_distance]. *)
let deps th i =
  op th i;
  List.filter_map
    (fun col ->
      match Bytes.get_uint16_ne col (2 * i) with
      | 0 -> None
      | x ->
        if x = Trace.max_distance && i - x >= th.retired then
          invalid_arg
            (Printf.sprintf
               "Stepper: op %d of thread %d has a saturated dependence on op %d, but only %d \
                ops have retired"
               i th.id (i - x) th.retired);
        Some (i - x))
    [ th.tr.Trace.dep1; th.tr.Trace.dep2; th.tr.Trace.dep3 ]

let ra_field col r i =
  if i < 0 || i >= r.rn then invalid_arg (Printf.sprintf "Stepper: RA event %d of %d" i r.rn);
  Int32.to_int (Bytes.get_int32_ne col (4 * i))

let in_seq r i = ra_field r.rt.Trace.rt_in_seq r i
let out_seq r i = ra_field r.rt.Trace.rt_out_seq r i
let addr r i = ra_field r.rt.Trace.rt_addr r i

let arrive q t =
  if q.pushed = Array.length q.log then
    q.log <- Array.append q.log (Array.make (Int.max 16 q.pushed) 0);
  q.log.(q.pushed) <- t;
  q.pushed <- q.pushed + 1

let arrival q i =
  if i < 0 || i >= q.pushed then invalid_arg (Printf.sprintf "Stepper: arrival %d of %d" i q.pushed);
  q.log.(i)

let is_mem k = k = Trace.op_load || k = Trace.op_store || k = Trace.op_atomic || k = Trace.op_prefetch

let run ?(cfg = Config.default) ?thread_core ?(ra_core = [||]) ?(queue_caps = []) ?faults
    ?(watchdog = Engine.default_watchdog) ?(cycle_budget = Engine.default_cycle_budget)
    (p : Types.pipeline) (trace : Trace.t) : Engine.result =
  let n_threads = Array.length trace.Trace.threads in
  let thread_core =
    match thread_core with Some tc -> tc | None -> Engine.default_thread_core cfg n_threads
  in
  let n_queues = trace.Trace.n_queues in
  let caches = Cache.create cfg in
  let pred =
    Predictor.create ~entries:cfg.Config.predictor_entries
      ~history_bits:cfg.Config.predictor_history_bits ~n_threads
  in
  let threads =
    Array.mapi
      (fun i tr ->
        let n = Trace.length tr in
        {
          id = i;
          core = thread_core.(i);
          tr;
          n;
          comp = Array.make n unset;
          issued = Array.make n false;
          svc = Array.make n 0;
          dispatched = 0;
          retired = 0;
          branch = -1;
          finished = n = 0;
          killed = false;
          stalled = false;
          issued_now = 0;
          cy_issue = 0;
          cy_backend = 0;
          cy_queue = 0;
          cy_other = 0;
          cy_barrier = 0;
          backend_lvl = Array.make 5 0;
          aq_full = Array.make n_queues 0;
          aq_empty = Array.make n_queues 0;
          enq_ops = Array.make n_queues 0;
          deq_ops = Array.make n_queues 0;
        })
      trace.Trace.threads
  in
  (* a queue's capacity: the machine's default, then its declaration, then
     an override; the last of each kind wins *)
  let capacity q =
    let declared =
      List.fold_left
        (fun acc (d : Types.queue_decl) -> if d.Types.q_id = q then d.Types.q_capacity else acc)
        cfg.Config.queue_depth p.Types.p_queues
    in
    List.fold_left (fun acc (q', c) -> if q' = q && c >= 1 then c else acc) declared queue_caps
  in
  let queues =
    Array.init n_queues (fun q ->
        { cap = capacity q; log = [||]; pushed = 0; deq_issued = 0; ra_consumed = 0; occ = 0 })
  in
  let occ_hist = Array.map (fun q -> Array.make (q.cap + 1) 0) queues in
  let ra_cfgs = Array.of_list p.Types.p_ras in
  let ras =
    Array.mapi
      (fun r rt ->
        let rn = Trace.ra_length rt in
        {
          ra_core = (if r < Array.length ra_core then ra_core.(r) else 0);
          inq = ra_cfgs.(r).Types.ra_in;
          outq = ra_cfgs.(r).Types.ra_out;
          rt;
          rn;
          fetch_done = Array.make rn unset;
          next_start = 0;
          next_deliver = 0;
          outstanding = 0;
          fetches = 0;
        })
      trace.Trace.ras
  in
  (* barrier occurrence (id, instance) -> members, and who has arrived;
     (thread, op) -> the barrier op's occurrence, numbered per thread and
     id in program order *)
  let barrier_total = Hashtbl.create 8 and barrier_arrived = Hashtbl.create 8 in
  let barrier_key = Hashtbl.create 8 in
  Array.iter
    (fun th ->
      let seen = Hashtbl.create 4 in
      for i = 0 to th.n - 1 do
        if kind th i = Trace.op_barrier then begin
          let instance = Option.value ~default:0 (Hashtbl.find_opt seen (pa th i)) in
          Hashtbl.replace seen (pa th i) (instance + 1);
          let key = (pa th i, instance) in
          Hashtbl.replace barrier_key (th.id, i) key;
          Hashtbl.replace barrier_total key
            (1 + Option.value ~default:0 (Hashtbl.find_opt barrier_total key))
        end
      done)
    threads;
  let cores =
    Array.init cfg.Config.n_cores (fun c ->
        Array.of_list (List.filter (fun th -> th.core = c) (Array.to_list threads)))
  in
  let share = Array.make cfg.Config.n_cores 0 in
  let now = ref 0 and progress = ref false and dropped = ref false in
  let guard = ref 0 and last_retire = ref 0 in
  let queue_ops = ref 0 and mem_budget = ref 0 in
  let active th = not (th.finished || th.killed || th.stalled) in
  let pending_dep th d = th.comp.(d) > !now in
  let first_unissued th =
    let rec go i = if i >= th.dispatched then -1 else if th.issued.(i) then go (i + 1) else i in
    go th.retired
  in

  (* --- failure reports --- *)
  let fail failure =
    let names = Forensics.agent_names p in
    let name id default = if id < Array.length names then names.(id) else default in
    let blocked_of th =
      if th.finished then Forensics.Finished
      else if th.killed then Forensics.Killed
      else
        let i = first_unissued th in
        if i < 0 then
          if th.branch < 0 && th.retired < th.dispatched then Forensics.On_memory
          else Forensics.On_frontend
        else
          let k = kind th i in
          if k = Trace.op_enq then
            let q = queues.(pa th i) in
            if q.occ >= q.cap then Forensics.On_queue_full (pa th i) else Forensics.Running
          else if k = Trace.op_deq then
            let q = queues.(pa th i) in
            if q.deq_issued >= q.pushed || arrival q q.deq_issued > !now then
              Forensics.On_queue_empty (pa th i)
            else Forensics.Running
          else if k = Trace.op_barrier then Forensics.On_barrier (pa th i)
          else if th.branch >= 0 then Forensics.On_frontend
          else Forensics.On_memory
    in
    let agents =
      Array.to_list
        (Array.map
           (fun th ->
             {
               Forensics.ag_id = th.id;
               ag_name = name th.id (Printf.sprintf "thread%d" th.id);
               ag_blocked = blocked_of th;
               ag_done_ops = th.retired;
               ag_total_ops = th.n;
             })
           threads)
      @ Array.to_list
          (Array.mapi
             (fun r ra ->
               let id = n_threads + r in
               let blocked =
                 if ra.next_deliver >= ra.rn then Forensics.Finished
                 else if ra.next_deliver < ra.next_start then
                   if queues.(ra.outq).occ >= queues.(ra.outq).cap then
                     Forensics.On_queue_full ra.outq
                   else Forensics.On_memory
                 else Forensics.On_queue_empty ra.inq
               in
               {
                 Forensics.ag_id = id;
                 ag_name = name id (Printf.sprintf "ra%d" r);
                 ag_blocked = blocked;
                 ag_done_ops = ra.next_deliver;
                 ag_total_ops = ra.rn;
               })
             ras)
    in
    Forensics.fail
      {
        Forensics.fr_kind = failure;
        fr_pipeline = p.Types.p_name;
        fr_at = !now;
        fr_agents = agents;
        fr_queues =
          List.init n_queues (fun q ->
              { Forensics.qo_id = q; qo_occupancy = queues.(q).occ; qo_capacity = queues.(q).cap });
        fr_wait_cycle =
          (if failure = Forensics.Budget_exhausted then []
           else Forensics.wait_cycle p agents);
        fr_injected = (match faults with Some f -> Faults.total f | None -> 0);
        fr_diagnosis = [];
      }
  in

  (* --- retire, dispatch, issue, reference accelerators --- *)
  let retire th =
    let before = th.retired in
    while th.retired < th.dispatched && th.comp.(th.retired) <= !now do
      th.retired <- th.retired + 1;
      progress := true
    done;
    if th.retired <> before then last_retire := !now;
    (match faults with
    | Some f ->
      if (not th.finished) && Faults.should_kill f ~thread:th.id ~retired:th.retired then
        th.killed <- true
    | None -> ());
    if th.retired >= th.n && not th.finished then begin
      th.finished <- true;
      progress := true
    end
  in
  let window_room th = th.dispatched - th.retired < share.(th.core) in
  let dispatch th budget =
    (if th.branch >= 0 then
       let c = th.comp.(th.branch) in
       if c <> unset && !now >= c + cfg.Config.mispredict_penalty then begin
         th.branch <- -1;
         progress := true
       end);
    let n = ref 0 in
    while th.branch < 0 && !n < budget && th.dispatched < th.n && window_room th do
      let i = th.dispatched in
      th.dispatched <- i + 1;
      incr n;
      progress := true;
      if kind th i = Trace.op_branch then begin
        (* a branch's payload is its site id [lsl 1], [lor 1] if taken *)
        let correct =
          Predictor.predict_update pred ~thread:th.id ~pc:(pa th i asr 1)
            ~taken:(pa th i land 1 = 1)
        in
        let correct =
          match faults with Some f -> correct && not (Faults.poison f) | None -> correct
        in
        if not correct then th.branch <- i
      end
    done;
    !n
  in
  let can_dispatch th = th.branch >= 0 || (th.dispatched < th.n && window_room th) in
  let dispatch_core ct =
    let nth = Array.length ct in
    let budget = ref cfg.Config.dispatch_width in
    let start = !now mod nth in
    let fair = Int.max 1 (cfg.Config.dispatch_width / nth) in
    for off = 0 to nth - 1 do
      let th = ct.((start + off) mod nth) in
      if active th && can_dispatch th then budget := !budget - dispatch th (Int.min fair !budget)
    done;
    let off = ref 0 in
    while !budget > 0 && !off < nth do
      let th = ct.((start + !off) mod nth) in
      if active th && can_dispatch th then budget := !budget - dispatch th !budget;
      incr off
    done
  in
  let spike level = match faults with Some f -> Faults.spike f ~level | None -> 0 in
  (* [latency] < 0: a barrier, whose completion its group's release sets *)
  let issue th i ~latency =
    if is_mem (kind th i) then decr mem_budget;
    th.issued.(i) <- true;
    if latency >= 0 then th.comp.(i) <- !now + latency;
    th.issued_now <- th.issued_now + 1;
    progress := true;
    true
  in
  let try_issue th i =
    let k = kind th i in
    if is_mem k && !mem_budget <= 0 then false
    else if List.exists (pending_dep th) (deps th i) then false
    else if k = Trace.op_load || k = Trace.op_atomic then begin
      let r = Cache.access caches ~core:th.core ~addr:(pa th i) ~now:!now in
      th.svc.(i) <- r.Cache.level_hit;
      let serialize = if k = Trace.op_atomic then 18 else 0 in
      issue th i ~latency:(r.Cache.latency + serialize + spike r.Cache.level_hit)
    end
    else if k = Trace.op_store then begin
      ignore (Cache.access caches ~core:th.core ~addr:(pa th i) ~now:!now);
      issue th i ~latency:1
    end
    else if k = Trace.op_prefetch then begin
      Cache.prefetch caches ~core:th.core ~addr:(pa th i) ~now:!now;
      issue th i ~latency:1
    end
    else if k = Trace.op_enq then begin
      let qid = pa th i in
      let q = queues.(qid) in
      if q.occ >= q.cap then false
      else
        match faults with
        | Some f when Faults.drop_enq f ~queue:qid ->
          dropped := true;
          false
        | _ ->
          q.occ <- q.occ + 1;
          arrive q (!now + 1);
          incr queue_ops;
          th.enq_ops.(qid) <- th.enq_ops.(qid) + 1;
          (match faults with
          | Some f when q.occ < q.cap && Faults.dup_enq f ~queue:qid ->
            q.occ <- q.occ + 1;
            arrive q (!now + 1)
          | _ -> ());
          issue th i ~latency:1
    end
    else if k = Trace.op_deq then begin
      let qid = pa th i in
      let q = queues.(qid) in
      if q.deq_issued >= q.pushed || arrival q q.deq_issued > !now then false
      else begin
        q.deq_issued <- q.deq_issued + 1;
        q.occ <- q.occ - 1;
        incr queue_ops;
        th.deq_ops.(qid) <- th.deq_ops.(qid) + 1;
        issue th i ~latency:1
      end
    end
    else if k = Trace.op_barrier then begin
      let key = Hashtbl.find barrier_key (th.id, i) in
      let arrived = (th, i) :: Option.value ~default:[] (Hashtbl.find_opt barrier_arrived key) in
      if List.length arrived = Hashtbl.find barrier_total key then begin
        Hashtbl.remove barrier_arrived key;
        List.iter (fun (th', i') -> th'.comp.(i') <- !now + 40) arrived
      end
      else Hashtbl.replace barrier_arrived key arrived;
      issue th i ~latency:(-1)
    end
    else issue th i ~latency:1
  in
  (* the oldest four dispatched ops not yet issued, in program order *)
  let probe_prefix th =
    let rec go i acc len =
      if i >= th.dispatched || len = 4 then List.rev acc
      else if th.issued.(i) then go (i + 1) acc len
      else go (i + 1) (i :: acc) (len + 1)
    in
    go th.retired [] 0
  in
  let issue_core ct =
    let nth = Array.length ct in
    let budget = ref cfg.Config.issue_width in
    mem_budget := cfg.Config.mem_ports;
    let start = !now mod nth in
    let scanned = Array.make nth 0 in
    let again = ref true in
    while !again && !budget > 0 do
      again := false;
      for off = 0 to nth - 1 do
        let ti = (start + off) mod nth in
        let th = ct.(ti) in
        if active th && !budget > 0 && scanned.(ti) < cfg.Config.sched_scan then
          List.iter
            (fun i ->
              if !budget > 0 then begin
                scanned.(ti) <- scanned.(ti) + 1;
                if try_issue th i then begin
                  decr budget;
                  again := true
                end
              end)
            (probe_prefix th)
      done
    done
  in
  let advance_ra ra =
    let fetched i = i < ra.next_start && ra.fetch_done.(i) <= !now in
    let delivering = ref true in
    while !delivering && ra.next_deliver < ra.rn do
      let i = ra.next_deliver in
      let out = if out_seq ra i < 0 then None else Some queues.(ra.outq) in
      if fetched i && match out with Some q -> q.occ < q.cap | None -> true then begin
        (match out with
        | Some q ->
          q.occ <- q.occ + 1;
          arrive q (!now + 1)
        | None -> ());
        ra.next_deliver <- i + 1;
        ra.outstanding <- ra.outstanding - 1;
        progress := true
      end
      else delivering := false
    done;
    let starting = ref true in
    while !starting && ra.next_start < ra.rn && ra.outstanding < cfg.Config.ra_mshrs do
      let i = ra.next_start in
      let inq = queues.(ra.inq) in
      (* several scan outputs share one input element; the first consumes it *)
      let first_use = i = 0 || in_seq ra (i - 1) <> in_seq ra i in
      let needed = if first_use then inq.ra_consumed + 1 else inq.ra_consumed in
      if needed <= inq.pushed && (needed = 0 || arrival inq (needed - 1) <= !now) then begin
        if first_use then begin
          inq.ra_consumed <- inq.ra_consumed + 1;
          inq.occ <- inq.occ - 1
        end;
        let a = addr ra i in
        let latency =
          if a < 0 then 1
          else begin
            ra.fetches <- ra.fetches + 1;
            let base = (Cache.access caches ~core:ra.ra_core ~addr:a ~now:!now).Cache.latency in
            base + spike 0
          end
        in
        ra.fetch_done.(i) <- !now + latency;
        ra.outstanding <- ra.outstanding + 1;
        ra.next_start <- i + 1;
        progress := true
      end
      else starting := false
    done
  in

  (* --- stall attribution, one cycle at a time --- *)
  let dep_level th i =
    match
      List.find_opt
        (fun d ->
          pending_dep th d && (kind th d = Trace.op_load || kind th d = Trace.op_atomic))
        (deps th i)
    with
    | Some d -> th.svc.(d)
    | None -> 0
  in
  let account th =
    let backend l =
      th.cy_backend <- th.cy_backend + 1;
      th.backend_lvl.(l) <- th.backend_lvl.(l) + 1
    in
    let queue_wait () = th.cy_queue <- th.cy_queue + 1 in
    if th.issued_now > 0 then th.cy_issue <- th.cy_issue + 1
    else if th.branch >= 0 then th.cy_other <- th.cy_other + 1
    else
      let i = first_unissued th in
      if i < 0 then th.cy_other <- th.cy_other + 1
      else
        let k = kind th i in
        if k = Trace.op_enq then begin
          let qid = pa th i in
          if queues.(qid).occ >= queues.(qid).cap then begin
            queue_wait ();
            th.aq_full.(qid) <- th.aq_full.(qid) + 1
          end
          else backend (dep_level th i)
        end
        else if k = Trace.op_deq then begin
          let qid = pa th i in
          let q = queues.(qid) in
          if q.deq_issued >= q.pushed || arrival q q.deq_issued > !now then begin
            queue_wait ();
            th.aq_empty.(qid) <- th.aq_empty.(qid) + 1
          end
          else backend (dep_level th i)
        end
        else if k = Trace.op_barrier then begin
          queue_wait ();
          th.cy_barrier <- th.cy_barrier + 1
        end
        else
          (* blocked on operands: blame the first pending producer that is
             a memory access or a dequeue *)
          match
            List.find_opt
              (fun d ->
                pending_dep th d
                && List.mem (kind th d) [ Trace.op_load; Trace.op_atomic; Trace.op_deq ])
              (deps th i)
          with
          | Some d when kind th d = Trace.op_deq ->
            queue_wait ();
            th.aq_empty.(pa th d) <- th.aq_empty.(pa th d) + 1
          | Some d -> backend th.svc.(d)
          | None -> backend 0
  in
  let pending () =
    let later c = c <> unset && c > !now in
    let rec in_window th i = i < th.dispatched && (later th.comp.(i) || in_window th (i + 1)) in
    let rec in_flight ra i = i < ra.next_start && (later ra.fetch_done.(i) || in_flight ra (i + 1)) in
    !dropped
    || Array.exists
         (fun th ->
           ((not th.finished) && th.stalled)
           || (th.branch >= 0
              && th.comp.(th.branch) <> unset
              && th.comp.(th.branch) + cfg.Config.mispredict_penalty > !now)
           || in_window th th.retired)
         threads
    || Array.exists (fun ra -> in_flight ra ra.next_deliver) ras
  in

  (* --- the cycle loop --- *)
  while Array.exists (fun th -> not th.finished) threads do
    if !now > cycle_budget then
      fail
        (if !now - !last_retire > watchdog then Forensics.Livelock else Forensics.Budget_exhausted)
    else if !now - !last_retire > watchdog then fail Forensics.Livelock;
    progress := false;
    dropped := false;
    Array.iter
      (fun th ->
        if not th.finished then
          th.stalled <-
            (match faults with
            | Some f -> Faults.stall_release f ~thread:th.id ~now:!now >= 0
            | None -> false);
        th.issued_now <- 0)
      threads;
    Array.iter (fun th -> if active th then retire th) threads;
    Array.iteri
      (fun c ct ->
        let running = List.length (List.filter (fun th -> not th.finished) (Array.to_list ct)) in
        share.(c) <- Int.max 16 (cfg.Config.rob_size / Int.max 1 running))
      cores;
    Array.iter (fun ct -> if Array.length ct > 0 then dispatch_core ct) cores;
    Array.iter (fun ct -> if Array.length ct > 0 then issue_core ct) cores;
    Array.iter advance_ra ras;
    Array.iteri
      (fun q h ->
        let b = Int.min queues.(q).occ (Array.length h - 1) in
        h.(b) <- h.(b) + 1)
      occ_hist;
    Array.iter (fun th -> if not th.finished then account th) threads;
    if !progress then guard := 0
    else if not (pending ()) then begin
      incr guard;
      if !guard > 4 then fail Forensics.Deadlock
    end;
    (match faults with
    | Some f ->
      let c = Faults.counters f in
      Array.iter
        (fun th ->
          if th.stalled && not th.finished then c.Faults.c_stall_cycles <- c.Faults.c_stall_cycles + 1)
        threads
    | None -> ());
    incr now
  done;
  let per f = Array.map f threads in
  let sum f = Array.fold_left (fun acc th -> acc + f th) 0 threads in
  let c = Cache.counters caches in
  {
    Engine.cycles = !now;
    instrs = sum (fun th -> th.n);
    issue_cycles = sum (fun th -> th.cy_issue);
    backend_cycles = sum (fun th -> th.cy_backend);
    queue_cycles = sum (fun th -> th.cy_queue);
    other_cycles = sum (fun th -> th.cy_other);
    cache = c;
    branch_lookups = pred.Predictor.lookups;
    branch_mispredicts = pred.Predictor.mispredicts;
    queue_ops = !queue_ops;
    ra_fetches = Array.fold_left (fun acc ra -> acc + ra.fetches) 0 ras;
    n_threads;
    n_cores_used = Array.fold_left (fun acc ct -> if Array.length ct > 0 then acc + 1 else acc) 0 cores;
    attribution =
      {
        Engine.at_queues =
          Array.init n_queues (fun q ->
              {
                Engine.qa_id = q;
                qa_capacity = queues.(q).cap;
                qa_full = per (fun th -> th.aq_full.(q));
                qa_empty = per (fun th -> th.aq_empty.(q));
                qa_enqs = per (fun th -> th.enq_ops.(q));
                qa_deqs = per (fun th -> th.deq_ops.(q));
                qa_occ_hist = occ_hist.(q);
              });
        at_issue = per (fun th -> th.cy_issue);
        at_backend = per (fun th -> th.cy_backend);
        at_queue = per (fun th -> th.cy_queue);
        at_other = per (fun th -> th.cy_other);
        at_barrier = per (fun th -> th.cy_barrier);
        at_backend_level = per (fun th -> th.backend_lvl);
      };
  }

(* --- differential check ---------------------------------------------- *)

type outcome = (Engine.result, Forensics.report) result

let outcome f = match f () with r -> Ok r | exception Forensics.Pipeline_failure rep -> Error rep

(* What differs between the engine's and the stepper's replay of one
   trace, as readable lines, [] when they agree. A completed run compares
   its report (every counter and energy figure) and its attribution; a
   failed one its kind, cycle, agents, wait cycle, queue snapshot and
   injected-fault count. *)
let differences ~fr (engine : outcome) (stepper : outcome) =
  let field name show a b =
    if a = b then [] else [ Printf.sprintf "%s: engine %s, stepper %s" name (show a) (show b) ]
  in
  let failure (r : Forensics.report) =
    Printf.sprintf "%s at %d" (Forensics.kind_name r.Forensics.fr_kind) r.Forensics.fr_at
  in
  match (engine, stepper) with
  | Ok a, Ok b ->
    let report r =
      Phloem_util.Json.to_string
        (Pipette.Sim.json_of_run
           { Pipette.Sim.sr_functional = fr; sr_timing = r; sr_energy = Pipette.Energy.of_result r })
    in
    field "report" Fun.id (report a) (report b)
    @ field "attribution" Phloem_util.Key.of_value a.Engine.attribution b.Engine.attribution
  | Error a, Error b ->
    let agents (r : Forensics.report) =
      String.concat "; "
        (List.map
           (fun (g : Forensics.agent_report) ->
             Printf.sprintf "%s %s %d/%d" g.Forensics.ag_name
               (Forensics.blocked_to_string g.Forensics.ag_blocked)
               g.Forensics.ag_done_ops g.Forensics.ag_total_ops)
           r.Forensics.fr_agents)
    in
    let chain (r : Forensics.report) =
      String.concat " -> "
        (List.map
           (fun ((g : Forensics.agent_report), q) -> Printf.sprintf "%s/q%d" g.Forensics.ag_name q)
           r.Forensics.fr_wait_cycle)
    in
    let queues (r : Forensics.report) =
      String.concat " "
        (List.map
           (fun (q : Forensics.queue_snapshot) ->
             Printf.sprintf "q%d:%d/%d" q.Forensics.qo_id q.Forensics.qo_occupancy
               q.Forensics.qo_capacity)
           r.Forensics.fr_queues)
    in
    field "failure" Fun.id (failure a) (failure b)
    @ field "agents" Fun.id (agents a) (agents b)
    @ field "wait cycle" Fun.id (chain a) (chain b)
    @ field "queues" Fun.id (queues a) (queues b)
    @ field "injected faults" string_of_int a.Forensics.fr_injected b.Forensics.fr_injected
  | Ok a, Error b ->
    [ Printf.sprintf "engine completed in %d cycles, stepper failed: %s" a.Engine.cycles (failure b) ]
  | Error a, Ok b ->
    [ Printf.sprintf "engine failed: %s, stepper completed in %d cycles" (failure a) b.Engine.cycles ]

(* Replay [fr]'s trace on the engine and on the stepper under one machine,
   each with its own instance of the fault plan, and list what differs,
   the two instances' fault counters included. Thread and RA placement
   default as in [Sim.simulate]. *)
let compare_replays ?(cfg = Config.default) ?thread_core ?queue_caps ?plan ?watchdog
    ?cycle_budget (p : Types.pipeline) (fr : Interp.result) =
  let thread_core =
    match thread_core with
    | Some tc -> tc
    | None -> Engine.default_thread_core cfg (List.length p.Types.p_stages)
  in
  let ra_core = Pipette.Sim.ra_cores p thread_core in
  let trace = fr.Interp.r_trace in
  let ef = Option.map Faults.create plan and sf = Option.map Faults.create plan in
  let engine =
    outcome (fun () ->
        Engine.run ~cfg ~thread_core ~ra_core ?queue_caps ?faults:ef ?watchdog ?cycle_budget p
          trace)
  in
  let stepper =
    outcome (fun () ->
        run ~cfg ~thread_core ~ra_core ?queue_caps ?faults:sf ?watchdog ?cycle_budget p trace)
  in
  let counters = function
    | Some f -> Phloem_util.Json.to_string (Faults.json_of_counters f)
    | None -> ""
  in
  differences ~fr engine stepper
  @
  if counters ef = counters sf then []
  else [ Printf.sprintf "fault counters: engine %s, stepper %s" (counters ef) (counters sf) ]
