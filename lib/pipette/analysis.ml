(* Bottleneck attribution: turn a run's refined stall counters
   (Engine.attribution) into an actionable diagnosis — which stage limits
   throughput, which queue is critical and in which direction (full =
   downstream backpressure, empty = upstream starvation), where backend
   stalls land in the memory hierarchy, and how much speedup is on the
   table until the bottleneck stage is split or accelerated. *)

module Table = Phloem_util.Table

type stage_report = {
  st_thread : int;
  st_name : string;
  st_issue : int; (* cycles with >= 1 op issued *)
  st_backend : int; (* stalled on memory/operands *)
  st_backend_level : int array; (* [|port/unattributed; L1; L2; L3; DRAM|] *)
  st_queue_full : int; (* blocked enqueueing: downstream backpressure *)
  st_queue_empty : int; (* starved dequeueing: upstream too slow *)
  st_barrier : int;
  st_other : int; (* frontend / mispredict recovery *)
  st_total : int; (* cycles this thread was accounted (until it retired) *)
  st_service : int;
      (* issue + backend + other: cycles spent on the stage's own work
         rather than waiting on the pipeline — the stage's intrinsic load *)
}

type queue_report = {
  q_id : int;
  q_capacity : int;
  q_full : int; (* producer-blocked cycles, summed over threads *)
  q_empty : int; (* consumer-starved cycles, summed over threads *)
  q_enqs : int;
  q_deqs : int;
  q_producers : int list; (* thread ids that enqueue into it *)
  q_consumers : int list;
  q_occ_hist : int array;
  q_mean_occ : float;
  q_frac_full : float; (* fraction of the run spent at full occupancy *)
  q_frac_empty : float; (* fraction of the run spent empty *)
}

type report = {
  r_cycles : int;
  r_stages : stage_report array;
  r_queues : queue_report array;
  r_bottleneck : int option; (* thread id of the highest-service stage *)
  r_critical_queue : int option; (* most stall-attributed queue *)
  r_headroom : float;
      (* estimated speedup bound if the bottleneck stage were split:
         cycles / next-highest stage service *)
  r_diagnosis : string list;
}

let level_names = [| "port"; "L1"; "L2"; "L3"; "DRAM" |]

let sum = Array.fold_left ( + ) 0

let of_result ?stage_names (t : Engine.result) : report =
  let a = t.Engine.attribution in
  let n = t.Engine.n_threads in
  let cycles = t.Engine.cycles in
  let name i =
    match stage_names with
    | Some ns when i < Array.length ns -> ns.(i)
    | _ -> Printf.sprintf "thread%d" i
  in
  let aq = a.Engine.at_queues in
  let stages =
    Array.init n (fun i ->
        let qf = Array.fold_left (fun acc q -> acc + q.Engine.qa_full.(i)) 0 aq in
        let qe = Array.fold_left (fun acc q -> acc + q.Engine.qa_empty.(i)) 0 aq in
        let issue = a.Engine.at_issue.(i)
        and backend = a.Engine.at_backend.(i)
        and queue = a.Engine.at_queue.(i)
        and other = a.Engine.at_other.(i) in
        {
          st_thread = i;
          st_name = name i;
          st_issue = issue;
          st_backend = backend;
          st_backend_level = Array.copy a.Engine.at_backend_level.(i);
          st_queue_full = qf;
          st_queue_empty = qe;
          st_barrier = a.Engine.at_barrier.(i);
          st_other = other;
          st_total = issue + backend + queue + other;
          st_service = issue + backend + other;
        })
  in
  let queues =
    Array.map
      (fun (q : Engine.queue_attr) ->
        let hist = q.Engine.qa_occ_hist in
        let tot = sum hist in
        let weighted =
          let acc = ref 0 in
          Array.iteri (fun occ c -> acc := !acc + (occ * c)) hist;
          !acc
        in
        let frac b = if tot = 0 then 0.0 else float_of_int b /. float_of_int tot in
        let members arr =
          let l = ref [] in
          for i = Array.length arr - 1 downto 0 do
            if arr.(i) > 0 then l := i :: !l
          done;
          !l
        in
        {
          q_id = q.Engine.qa_id;
          q_capacity = q.Engine.qa_capacity;
          q_full = sum q.Engine.qa_full;
          q_empty = sum q.Engine.qa_empty;
          q_enqs = sum q.Engine.qa_enqs;
          q_deqs = sum q.Engine.qa_deqs;
          q_producers = members q.Engine.qa_enqs;
          q_consumers = members q.Engine.qa_deqs;
          q_occ_hist = Array.copy hist;
          q_mean_occ =
            (if tot = 0 then 0.0 else float_of_int weighted /. float_of_int tot);
          q_frac_full = frac hist.(Array.length hist - 1);
          q_frac_empty = frac hist.(0);
        })
      aq
  in
  let argmax f arr =
    let best = ref (-1) and best_v = ref 0 in
    Array.iteri
      (fun i x ->
        let v = f x in
        if v > !best_v then begin
          best := i;
          best_v := v
        end)
      arr;
    if !best < 0 then None else Some !best
  in
  let bottleneck = argmax (fun s -> s.st_service) stages in
  let critical_queue =
    Option.map
      (fun i -> queues.(i).q_id)
      (argmax (fun q -> q.q_full + q.q_empty) queues)
  in
  let headroom =
    match bottleneck with
    | None -> 1.0
    | Some b ->
      let next =
        Array.fold_left
          (fun acc s -> if s.st_thread <> b then max acc s.st_service else acc)
          0 stages
      in
      if next <= 0 || cycles <= 0 then 1.0
      else max 1.0 (float_of_int cycles /. float_of_int next)
  in
  let pct x = 100.0 *. float_of_int x /. float_of_int (max 1 cycles) in
  let stage_list ?(none = "(none)") ids =
    match ids with
    | [] -> none
    | _ -> String.concat ", " (List.map (fun i -> stages.(i).st_name) ids)
  in
  let diagnosis = ref [] in
  let say fmt = Printf.ksprintf (fun s -> diagnosis := s :: !diagnosis) fmt in
  (match bottleneck with
  | Some b ->
    let s = stages.(b) in
    say
      "stage %d '%s' is the bottleneck: %.0f%% of cycles on its own work \
       (issue %.0f%%, backend %.0f%%), only %.0f%% blocked on queues"
      b s.st_name (pct s.st_service) (pct s.st_issue) (pct s.st_backend)
      (pct (s.st_queue_full + s.st_queue_empty + s.st_barrier));
    let lvl_tot = sum s.st_backend_level in
    if lvl_tot > 0 then begin
      let ranked =
        List.sort
          (fun (_, a) (_, b) -> compare b a)
          (Array.to_list (Array.mapi (fun i c -> (level_names.(i), c)) s.st_backend_level))
        |> List.filter (fun (_, c) -> c > 0)
      in
      let top =
        String.concat ", "
          (List.map
             (fun (nm, c) ->
               Printf.sprintf "%s %.0f%%" nm
                 (100.0 *. float_of_int c /. float_of_int lvl_tot))
             ranked)
      in
      say "its backend stalls resolve at: %s" top
    end
  | None -> ());
  (match critical_queue with
  | Some qi ->
    let q = queues.(qi) in
    if q.q_full >= q.q_empty && q.q_full > 0 then
      say
        "queue %d (capacity %d) is the critical queue: producers (%s) blocked \
         %d cycles (%.0f%% of run) on a full queue — consumer (%s) cannot keep \
         up; mean occupancy %.1f, full %.0f%% of the time"
        q.q_id q.q_capacity (stage_list q.q_producers) q.q_full (pct q.q_full)
        (stage_list ~none:"an RA" q.q_consumers)
        q.q_mean_occ (100.0 *. q.q_frac_full)
    else if q.q_empty > 0 then
      say
        "queue %d (capacity %d) is the critical queue: consumers (%s) starved \
         %d cycles (%.0f%% of run) on an empty queue — producer (%s) cannot \
         keep up; mean occupancy %.1f, empty %.0f%% of the time"
        q.q_id q.q_capacity (stage_list q.q_consumers) q.q_empty (pct q.q_empty)
        (stage_list ~none:"an RA" q.q_producers)
        q.q_mean_occ (100.0 *. q.q_frac_empty)
  | None -> ());
  (match (bottleneck, critical_queue) with
  | Some b, Some qi ->
    let q = queues.(qi) in
    let victims, relation =
      if q.q_full >= q.q_empty then
        (List.filter (fun i -> i <> b) q.q_producers, "backpressures")
      else (List.filter (fun i -> i <> b) q.q_consumers, "starves")
    in
    let blocked =
      List.fold_left
        (fun acc i ->
          acc + stages.(i).st_queue_full + stages.(i).st_queue_empty)
        0 victims
    in
    if victims <> [] && blocked > 0 then
      say
        "stage '%s' %s stage %s for %.0f%% of their cycles; speedup bounded \
         at %.1fx until stage '%s' is split or accelerated"
        stages.(b).st_name relation (stage_list victims)
        (100.0 *. float_of_int blocked
        /. float_of_int (max 1 (List.length victims * cycles)))
        headroom stages.(b).st_name
    else if headroom > 1.05 then
      say "speedup bounded at %.1fx until stage '%s' is split or accelerated"
        headroom stages.(b).st_name
  | _ -> ());
  {
    r_cycles = cycles;
    r_stages = stages;
    r_queues = queues;
    r_bottleneck = bottleneck;
    r_critical_queue = critical_queue;
    r_headroom = headroom;
    r_diagnosis = List.rev !diagnosis;
  }

(* Collapse a report into the single actionable category the autotuner's
   move generator branches on. Thresholds: a run with less than
   [headroom_threshold] estimated speedup left is Balanced (stop
   expanding); the critical queue must absorb at least 5% of the run's
   cycles in stalls before the run counts as queue-bound — below that the
   queue is a symptom, not the constraint, and the bottleneck stage's own
   issue/backend split decides. *)

type queue_direction = Backpressure | Starvation

type verdict =
  | Balanced
  | Queue_bound of { qb_queue : int; qb_direction : queue_direction }
  | Backend_bound of { bb_stage : int; bb_level : int }
  | Compute_bound of { cb_stage : int }

let classify ?(headroom_threshold = 1.05) (r : report) : verdict =
  if r.r_headroom < headroom_threshold then Balanced
  else
    match r.r_bottleneck with
    | None -> Balanced
    | Some b ->
      let queue_verdict =
        match r.r_critical_queue with
        | None -> None
        | Some qid -> (
          match
            Array.to_list r.r_queues
            |> List.find_opt (fun q -> q.q_id = qid)
          with
          | None -> None
          | Some q ->
            let stalls = q.q_full + q.q_empty in
            if
              stalls * 20 >= max 1 r.r_cycles (* >= 5% of the run *)
            then
              Some
                (Queue_bound
                   {
                     qb_queue = qid;
                     qb_direction =
                       (if q.q_full >= q.q_empty then Backpressure
                        else Starvation);
                   })
            else None)
      in
      (match queue_verdict with
      | Some v -> v
      | None ->
        let s = r.r_stages.(b) in
        if s.st_backend > s.st_issue then begin
          let lvl = ref 0 in
          Array.iteri
            (fun i c -> if c > s.st_backend_level.(!lvl) then lvl := i)
            s.st_backend_level;
          Backend_bound { bb_stage = b; bb_level = !lvl }
        end
        else Compute_bound { cb_stage = b })

let verdict_to_string = function
  | Balanced -> "balanced"
  | Queue_bound { qb_queue; qb_direction = Backpressure } ->
    Printf.sprintf "queue-bound(q%d, backpressure)" qb_queue
  | Queue_bound { qb_queue; qb_direction = Starvation } ->
    Printf.sprintf "queue-bound(q%d, starvation)" qb_queue
  | Backend_bound { bb_stage; bb_level } ->
    Printf.sprintf "backend-bound(stage %d, %s)" bb_stage
      level_names.(max 0 (min bb_level (Array.length level_names - 1)))
  | Compute_bound { cb_stage } -> Printf.sprintf "compute-bound(stage %d)" cb_stage

let render (r : report) : string =
  let buf = Buffer.create 2048 in
  Printf.bprintf buf
    "Bottleneck report: %d cycles, %d stage(s), %d queue(s)\n\n" r.r_cycles
    (Array.length r.r_stages)
    (Array.length r.r_queues);
  let pct x =
    Printf.sprintf "%.1f%%" (100.0 *. float_of_int x /. float_of_int (max 1 r.r_cycles))
  in
  let t =
    Table.create
      [ "Stage"; "Issue"; "Backend"; "Q-full"; "Q-empty"; "Barrier"; "Other" ]
  in
  Array.iter
    (fun s ->
      Table.add_row t
        [
          Printf.sprintf "%d:%s%s" s.st_thread s.st_name
            (if Some s.st_thread = r.r_bottleneck then " <- bottleneck" else "");
          pct s.st_issue;
          pct s.st_backend;
          pct s.st_queue_full;
          pct s.st_queue_empty;
          pct s.st_barrier;
          pct s.st_other;
        ])
    r.r_stages;
  Buffer.add_string buf (Table.render t);
  if Array.length r.r_queues > 0 then begin
    Buffer.add_char buf '\n';
    let t =
      Table.create
        [ "Queue"; "Cap"; "Enqs"; "Deqs"; "Full-stall"; "Empty-stall"; "Mean occ"; "%full"; "%empty" ]
    in
    Array.iter
      (fun q ->
        Table.add_row t
          [
            Printf.sprintf "%d%s" q.q_id
              (if Some q.q_id = r.r_critical_queue then " <- critical" else "");
            string_of_int q.q_capacity;
            string_of_int q.q_enqs;
            string_of_int q.q_deqs;
            string_of_int q.q_full;
            string_of_int q.q_empty;
            Printf.sprintf "%.1f" q.q_mean_occ;
            Printf.sprintf "%.0f" (100.0 *. q.q_frac_full);
            Printf.sprintf "%.0f" (100.0 *. q.q_frac_empty);
          ])
      r.r_queues;
    Buffer.add_string buf (Table.render t)
  end;
  (* queue-stall reconciliation: the refined counters partition Sc_queue *)
  let full = Array.fold_left (fun acc q -> acc + q.q_full) 0 r.r_queues in
  let empty = Array.fold_left (fun acc q -> acc + q.q_empty) 0 r.r_queues in
  let barrier = Array.fold_left (fun acc s -> acc + s.st_barrier) 0 r.r_stages in
  Printf.bprintf buf
    "\nqueue-stall reconciliation: full %d + empty %d + barrier %d = %d \
     thread-cycles (aggregate queue class)\n"
    full empty barrier (full + empty + barrier);
  if r.r_diagnosis <> [] then begin
    Buffer.add_string buf "\nDiagnosis:\n";
    List.iter (fun d -> Printf.bprintf buf "  - %s\n" d) r.r_diagnosis
  end;
  Buffer.contents buf

let json_of_report (r : report) : Phloem_util.Json.t =
  let open Phloem_util.Json in
  let ints a = List (List.map (fun i -> Int i) (Array.to_list a)) in
  Obj
    [
      ("cycles", Int r.r_cycles);
      ( "stages",
        List
          (Array.to_list
             (Array.map
                (fun s ->
                  Obj
                    [
                      ("thread", Int s.st_thread);
                      ("name", Str s.st_name);
                      ("issue", Int s.st_issue);
                      ("backend", Int s.st_backend);
                      ("backend_level", ints s.st_backend_level);
                      ("queue_full", Int s.st_queue_full);
                      ("queue_empty", Int s.st_queue_empty);
                      ("barrier", Int s.st_barrier);
                      ("other", Int s.st_other);
                      ("service", Int s.st_service);
                    ])
                r.r_stages)) );
      ( "queues",
        List
          (Array.to_list
             (Array.map
                (fun q ->
                  Obj
                    [
                      ("id", Int q.q_id);
                      ("capacity", Int q.q_capacity);
                      ("full_stall_cycles", Int q.q_full);
                      ("empty_stall_cycles", Int q.q_empty);
                      ("enqs", Int q.q_enqs);
                      ("deqs", Int q.q_deqs);
                      ("producers", ints (Array.of_list q.q_producers));
                      ("consumers", ints (Array.of_list q.q_consumers));
                      ("occupancy_hist", ints q.q_occ_hist);
                      ("mean_occupancy", Float q.q_mean_occ);
                      ("frac_full", Float q.q_frac_full);
                      ("frac_empty", Float q.q_frac_empty);
                    ])
                r.r_queues)) );
      ( "bottleneck_stage",
        match r.r_bottleneck with Some i -> Int i | None -> Null );
      ( "critical_queue",
        match r.r_critical_queue with Some i -> Int i | None -> Null );
      ("headroom", Float r.r_headroom);
      ("diagnosis", List (List.map (fun d -> Str d) r.r_diagnosis));
    ]

(* Machine-readable form of a structured pipeline-failure report, for the
   "failure" object in CLI JSON output and the harness "errors" arrays. *)
let json_of_failure (f : Phloem_ir.Forensics.report) : Phloem_util.Json.t =
  let open Phloem_ir.Forensics in
  let open Phloem_util.Json in
  Obj
    [
      ("kind", Str (kind_name f.fr_kind));
      ("exit_code", Int (exit_code f.fr_kind));
      ("pipeline", Str f.fr_pipeline);
      ("at", Int f.fr_at);
      ("injected_faults", Int f.fr_injected);
      ( "agents",
        List
          (List.map
             (fun a ->
               Obj
                 [
                   ("id", Int a.ag_id);
                   ("name", Str a.ag_name);
                   ("blocked_on", Str (blocked_to_string a.ag_blocked));
                   ("done_ops", Int a.ag_done_ops);
                   ("total_ops", Int a.ag_total_ops);
                 ])
             f.fr_agents) );
      ( "queues",
        List
          (List.map
             (fun q ->
               Obj
                 [
                   ("id", Int q.qo_id);
                   ("occupancy", Int q.qo_occupancy);
                   ("capacity", Int q.qo_capacity);
                 ])
             f.fr_queues) );
      ( "wait_cycle",
        List
          (List.map
             (fun (a, q) ->
               Obj [ ("agent", Str a.ag_name); ("queue", Int q) ])
             f.fr_wait_cycle) );
      ("diagnosis", List (List.map (fun d -> Str d) f.fr_diagnosis));
    ]
