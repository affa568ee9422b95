(* Structured failure reports for stuck pipelines.

   Both execution paths — the functional Kahn-network interpreter (Interp)
   and the cycle-level timing replay (Pipette.Engine) — can wedge on the
   queue network: a consumer starves forever, a bounded queue backs up into
   its producer, a barrier group never completes, or forward progress decays
   without ever fully stopping. Instead of a bare exception string, both
   raise [Pipeline_failure] carrying this report: the failure kind
   (deadlock vs livelock vs budget exhaustion), every agent's blocked-on
   state, the cyclic wait chain over queues when one exists, a queue
   occupancy snapshot, and a plain-language diagnosis. *)

open Types

(* What an agent (pipeline stage thread or reference accelerator) was
   waiting on when the run was declared stuck. *)
type blocked_on =
  | On_queue_empty of queue_id (* dequeue starved: upstream never produced *)
  | On_queue_full of queue_id (* enqueue blocked: downstream never drained *)
  | On_barrier of int
  | On_memory (* outstanding memory access (timing path only) *)
  | On_frontend (* mispredict recovery / empty window (timing path only) *)
  | Killed (* disabled by fault injection *)
  | Running (* was still executing when the report was cut *)
  | Finished

type agent_report = {
  ag_id : int; (* thread index; RAs follow the stage threads *)
  ag_name : string;
  ag_blocked : blocked_on;
  ag_done_ops : int; (* ops retired (timing) or emitted (functional) *)
  ag_total_ops : int; (* trace length, or -1 when unknowable up front *)
}

type queue_snapshot = {
  qo_id : queue_id;
  qo_occupancy : int;
  qo_capacity : int; (* -1 = unbounded (functional path) *)
}

type kind =
  | Deadlock (* no agent can ever make progress again *)
  | Livelock (* cycles/ops still elapse, but nothing has retired for a window *)
  | Budget_exhausted (* progress was still being made when the budget ran out *)

type report = {
  fr_kind : kind;
  fr_pipeline : string;
  fr_at : int; (* cycle (timing path) or executed-op count (functional) *)
  fr_agents : agent_report list;
  fr_queues : queue_snapshot list;
  fr_wait_cycle : (agent_report * queue_id) list;
      (* the cyclic wait chain: each agent waits on the named queue, whose
         unblocker is the next agent in the list (wrapping around); empty
         when no cycle exists (e.g. budget exhaustion) *)
  fr_injected : int; (* faults injected before the trip; 0 on clean runs *)
  fr_diagnosis : string list;
}

exception Pipeline_failure of report

let kind_name = function
  | Deadlock -> "deadlock"
  | Livelock -> "livelock"
  | Budget_exhausted -> "budget-exhausted"

(* Distinct process exit codes for the CLIs: CI tells a wedged queue
   network (5/6) apart from an undersized cycle budget (7) and from a
   benchmark regression (4, see bench --compare). *)
let exit_code = function
  | Deadlock -> 5
  | Livelock -> 6
  | Budget_exhausted -> 7

let blocked_to_string = function
  | On_queue_empty q -> Printf.sprintf "dequeue from empty q%d" q
  | On_queue_full q -> Printf.sprintf "enqueue into full q%d" q
  | On_barrier b -> Printf.sprintf "barrier %d" b
  | On_memory -> "outstanding memory access"
  | On_frontend -> "frontend (branch redirect / empty window)"
  | Killed -> "killed by fault injection"
  | Running -> "still running"
  | Finished -> "finished"

(* ---------- static queue wiring ---------- *)

(* The queues a stage enqueues into and dequeues from, unordered and possibly
   repeated. Handlers count: a handler consumes control values arriving on
   its queue, and its body can re-enqueue or dequeue on behalf of its
   stage. *)
let stage_queues (s : stage) =
  let deq acc e = match e with Deq q -> q :: acc | _ -> acc in
  let visit (enqs, deqs) x =
    let deqs = List.fold_left (fold_expr deq) deqs (stmt_exprs x) in
    match x with
    | Enq (q, _) | Enq_ctrl (q, _) -> (q :: enqs, deqs)
    | Enq_indexed (qs, _, _) -> (Array.to_list qs @ enqs, deqs)
    | _ -> (enqs, deqs)
  in
  List.fold_left
    (fun (enqs, deqs) h -> fold_stmts visit (enqs, h.h_queue :: deqs) h.h_body)
    (fold_stmts visit ([], []) s.s_body)
    s.s_handlers

(* Producer/consumer agent sets per queue, scanned from the pipeline text.
   Agents are numbered stages-first, then RAs ([n_stages + ra index]), the
   same order both execution paths use; each set lists its agents in
   descending order. *)
let queue_users (p : pipeline) =
  let n_queues =
    List.fold_left (fun acc (q : queue_decl) -> max acc (q.q_id + 1)) 0 p.p_queues
  in
  let n_queues =
    List.fold_left
      (fun acc (r : ra_config) -> max acc (max r.ra_in r.ra_out + 1))
      n_queues p.p_ras
  in
  let producers = Array.make (max n_queues 1) [] in
  let consumers = Array.make (max n_queues 1) [] in
  let add tbl q agent = if not (List.mem agent tbl.(q)) then tbl.(q) <- agent :: tbl.(q) in
  List.iteri
    (fun i (s : stage) ->
      let enqs, deqs = stage_queues s in
      List.iter (fun q -> add producers q i) enqs;
      List.iter (fun q -> add consumers q i) deqs)
    p.p_stages;
  let n_stages = List.length p.p_stages in
  List.iteri
    (fun j (r : ra_config) ->
      add consumers r.ra_in (n_stages + j);
      add producers r.ra_out (n_stages + j))
    p.p_ras;
  (n_queues, producers, consumers)

let agent_names (p : pipeline) =
  Array.of_list
    (List.map (fun (s : stage) -> s.s_name) p.p_stages
    @ List.mapi (fun j (_ : ra_config) -> Printf.sprintf "ra%d" j) p.p_ras)

(* ---------- cyclic wait chain ---------- *)

(* The wait graph over the agents of [p]: a blocked agent's edges point at
   the agents that could unblock it — the producers of the queue it starves
   on, the consumers of the queue backing up into it, or, at a barrier, the
   stage threads neither finished nor at that barrier. A cycle through
   *blocked* agents is a wedged dependency loop: every agent on it waits
   for another agent on it. Returns the first cycle a depth-first search in
   agent order finds, as (agent, queue) hops in chain order ([-1] for a
   barrier), or [] when no cycle exists among the blocked agents. *)
let wait_cycle (p : pipeline) (agents : agent_report list) =
  let _, producers, consumers = queue_users p in
  let n_stages = List.length p.p_stages in
  let users tbl q = if q >= 0 && q < Array.length tbl then tbl.(q) else [] in
  let among ids = List.filter (fun b -> List.mem b.ag_id ids) agents in
  let unblockers a =
    match a.ag_blocked with
    | On_queue_empty q -> among (users producers q)
    | On_queue_full q -> among (users consumers q)
    | On_barrier bar ->
      List.filter
        (fun b -> b.ag_id < n_stages && b.ag_blocked <> Finished && b.ag_blocked <> On_barrier bar)
        agents
    | _ -> []
  in
  let waiting =
    List.filter_map
      (fun a ->
        match a.ag_blocked with
        | On_queue_empty q | On_queue_full q -> Some (a, q)
        | On_barrier _ -> Some (a, -1)
        | _ -> None)
      agents
  in
  let n = List.length waiting in
  if n = 0 then []
  else begin
    let waiters = Array.of_list (List.map fst waiting) in
    let index_of = Hashtbl.create n in
    Array.iteri (fun i (a : agent_report) -> Hashtbl.replace index_of a.ag_id i) waiters;
    let edges =
      Array.map
        (fun (a : agent_report) ->
          List.filter_map
            (fun (b : agent_report) -> Hashtbl.find_opt index_of b.ag_id)
            (unblockers a))
        waiters
    in
    (* colors: 0 unvisited, 1 on stack, 2 done *)
    let color = Array.make n 0 in
    let parent = Array.make n (-1) in
    let cycle = ref None in
    let rec dfs i =
      if !cycle = None then begin
        color.(i) <- 1;
        List.iter
          (fun j ->
            if !cycle = None then
              if color.(j) = 1 then begin
                (* found: walk parents from i back to j *)
                let rec collect k acc =
                  if k = j then j :: acc else collect parent.(k) (k :: acc)
                in
                cycle := Some (collect i [])
              end
              else if color.(j) = 0 then begin
                parent.(j) <- i;
                dfs j
              end)
          edges.(i);
        color.(i) <- 2
      end
    in
    for i = 0 to n - 1 do
      if color.(i) = 0 && !cycle = None then dfs i
    done;
    match !cycle with
    | None -> []
    | Some idxs ->
      let qs = Array.of_list (List.map snd waiting) in
      List.map (fun i -> (waiters.(i), qs.(i))) idxs
  end

(* ---------- rendering ---------- *)

let render (r : report) =
  let buf = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "==== pipeline failure: %s (%s) ====" r.fr_pipeline (kind_name r.fr_kind);
  line "at: %d %s" r.fr_at
    (match r.fr_kind with _ when r.fr_at >= 0 -> "(cycle / op count)" | _ -> "");
  if r.fr_injected > 0 then line "faults injected before the trip: %d" r.fr_injected;
  line "agents:";
  List.iter
    (fun a ->
      line "  %-16s %s%s" a.ag_name
        (blocked_to_string a.ag_blocked)
        (if a.ag_total_ops >= 0 then
           Printf.sprintf "  [%d/%d ops]" a.ag_done_ops a.ag_total_ops
         else Printf.sprintf "  [%d ops]" a.ag_done_ops))
    r.fr_agents;
  if r.fr_queues <> [] then begin
    line "queues:";
    List.iter
      (fun q ->
        line "  q%-3d occupancy %d%s" q.qo_id q.qo_occupancy
          (if q.qo_capacity >= 0 then Printf.sprintf " / capacity %d" q.qo_capacity
           else " (unbounded)"))
      r.fr_queues
  end;
  (match r.fr_wait_cycle with
  | [] -> ()
  | hops ->
    let chain =
      String.concat " -> "
        (List.map
           (fun (a, q) ->
             if q >= 0 then Printf.sprintf "%s -> q%d" a.ag_name q
             else Printf.sprintf "%s -> barrier" a.ag_name)
           hops)
    in
    line "cyclic wait chain: %s -> %s" chain
      (match hops with (a, _) :: _ -> a.ag_name | [] -> ""));
  List.iter (fun d -> line "diagnosis: %s" d) r.fr_diagnosis;
  Buffer.contents buf

let fail r = raise (Pipeline_failure r)
