(* The compiler's pass list.

   Each pass wraps one IR-to-IR transformation as a first-class [Pass.PASS]
   module; [standard ~flags] assembles the list the top-level compilation
   flows run through [Pass.Manager]. The feature gates in [Pass.flags]
   remain orthogonal: they steer decisions *inside* the decouple pass and
   decide whether scan-chaining is included at all. *)

open Phloem_ir.Types

(* The architecture's queue and RA budget (Table III). *)
let max_queues = Pipette.Config.(default.max_queues)
let max_ras = Pipette.Config.(default.max_ras)

let decouple : Pass.pass =
  (module struct
    let name = "decouple"
    let describe = "split the serial kernel into pipeline stages at the selected cuts"
    let run (ctx : Pass.ctx) p = Decouple.split ~flags:ctx.Pass.flags p ctx.Pass.cuts

    let invariants =
      [
        (fun (_ : Pass.ctx) p ->
          if List.length p.p_stages < 2 then
            Pass.reject "decouple produced %d stage(s), expected at least 2"
              (List.length p.p_stages));
      ]
  end)

let scan_chain : Pass.pass =
  (module struct
    let name = "scan-chain"
    let describe = "replace dequeue-pair/stream-scan stages with chained SCAN RAs"
    let run (_ : Pass.ctx) p = Chain.chain p

    let invariants =
      [
        (fun (_ : Pass.ctx) p ->
          if List.length p.p_ras > max_ras then
            Pass.reject "scan-chain allocated %d RAs (max %d)" (List.length p.p_ras)
              max_ras);
      ]
  end)

let cleanup : Pass.pass =
  (module struct
    let name = "cleanup"
    let describe = "drop effect-free stages, orphan handlers, and dead queues/RAs"
    let run (_ : Pass.ctx) p = Chain.cleanup p
    let invariants = []
  end)

let check_limits : Pass.pass =
  (module struct
    let name = "check-limits"
    let describe = "reject pipelines exceeding the queue and RA budgets"

    let run (_ : Pass.ctx) p =
      if List.length p.p_queues > max_queues then
        Decouple.reject "pipeline uses %d queues (max %d)" (List.length p.p_queues)
          max_queues;
      if List.length p.p_ras > max_ras then
        Decouple.reject "pipeline uses %d RAs (max %d)" (List.length p.p_ras) max_ras;
      p

    let invariants = []
  end)

(* Static deadlock guard over the communication plan. Agents are stages and
   RAs; the wait graph has one edge producer -> consumer per queue. Two
   checks: (1) a queue with consumers but no producer can never be filled —
   reject; (2) a strongly connected component where *every* member's first
   queue operation (pre-order through its body) is a blocking dequeue of an
   in-cycle queue that no outside agent feeds can never enqueue its first
   token — reject and name the cycle. Cyclic plans that escape (2) are
   feasible but capacity-sensitive: every in-cycle queue must be able to
   hold the cycle's in-flight tokens, so undersized ones get a warning with
   a minimum-capacity suggestion rather than a rejection (the timing model
   decides at run time; see Forensics for the run-time counterpart). *)
let check_deadlock : Pass.pass =
  (module struct
    let name = "check-deadlock"
    let describe = "reject communication plans whose queue cycles can never make progress"

    type first_op = F_deq of int | F_enq | F_none

    let first_queue_op (s : stage) =
      let exception Found of first_op in
      let deq () e = match e with Deq q -> raise (Found (F_deq q)) | _ -> () in
      let visit () x =
        (* an enqueued value is computed first: a Deq inside it blocks
           before the enqueue lands *)
        List.iter (fold_expr deq ()) (stmt_exprs x);
        match x with
        | Enq _ | Enq_ctrl _ | Enq_indexed _ -> raise (Found F_enq)
        | _ -> ()
      in
      try
        fold_stmts visit () s.s_body;
        F_none
      with Found f -> f

    let run (_ : Pass.ctx) p =
      let n_stages = List.length p.p_stages in
      let n_agents = n_stages + List.length p.p_ras in
      let _, producers, consumers = Phloem_ir.Forensics.queue_users p in
      let n_queues = Array.length producers in
      for q = 0 to n_queues - 1 do
        if consumers.(q) <> [] && producers.(q) = [] then
          Pass.reject
            "check-deadlock: q%d is dequeued but no stage or RA ever enqueues \
             into it"
            q
      done;
      let names = Phloem_ir.Forensics.agent_names p in
      let agent_name a =
        if a < Array.length names then names.(a) else Printf.sprintf "agent%d" a
      in
      let succs = Array.make (max n_agents 1) [] in
      for q = 0 to n_queues - 1 do
        List.iter
          (fun a ->
            List.iter
              (fun b ->
                if a < n_agents && b < n_agents && not (List.mem b succs.(a))
                then succs.(a) <- b :: succs.(a))
              consumers.(q))
          producers.(q)
      done;
      (* Tarjan's SCC *)
      let index = Array.make (max n_agents 1) (-1) in
      let low = Array.make (max n_agents 1) 0 in
      let on_stack = Array.make (max n_agents 1) false in
      let stack = ref [] in
      let counter = ref 0 in
      let sccs = ref [] in
      let rec strongconnect v =
        index.(v) <- !counter;
        low.(v) <- !counter;
        incr counter;
        stack := v :: !stack;
        on_stack.(v) <- true;
        List.iter
          (fun w ->
            if index.(w) < 0 then begin
              strongconnect w;
              low.(v) <- min low.(v) low.(w)
            end
            else if on_stack.(w) then low.(v) <- min low.(v) index.(w))
          succs.(v);
        if low.(v) = index.(v) then begin
          let rec pop acc =
            match !stack with
            | w :: rest ->
              stack := rest;
              on_stack.(w) <- false;
              if w = v then w :: acc else pop (w :: acc)
            | [] -> acc
          in
          sccs := pop [] :: !sccs
        end
      in
      for v = 0 to n_agents - 1 do
        if index.(v) < 0 then strongconnect v
      done;
      let first_ops =
        Array.init n_agents (fun a ->
            if a < n_stages then first_queue_op (List.nth p.p_stages a)
            else F_deq (List.nth p.p_ras (a - n_stages)).ra_in)
      in
      let cap q =
        match List.find_opt (fun (d : queue_decl) -> d.q_id = q) p.p_queues with
        | Some d -> d.q_capacity
        | None -> 24
      in
      List.iter
        (fun scc ->
          let cyclic =
            match scc with
            | [ v ] -> List.mem v succs.(v)
            | _ :: _ :: _ -> true
            | _ -> false
          in
          if cyclic then begin
            let in_scc a = List.mem a scc in
            let in_cycle_q q =
              List.exists in_scc producers.(q) && List.exists in_scc consumers.(q)
            in
            let wedged =
              List.for_all
                (fun a ->
                  match first_ops.(a) with
                  | F_deq q ->
                    in_cycle_q q && List.for_all in_scc producers.(q)
                  | F_enq | F_none -> false)
                scc
          in
            let members = String.concat " -> " (List.map agent_name scc) in
            if wedged then
              Pass.reject
                "check-deadlock: cyclic communication plan {%s} can never \
                 start — every member first dequeues a queue only the cycle \
                 itself fills"
                members
            else begin
              let tight =
                List.filter
                  (fun q -> in_cycle_q q && cap q < List.length scc)
                  (List.init n_queues Fun.id)
              in
              List.iter
                (fun q ->
                  Phloem_util.Log.warn ~component:"check-deadlock"
                    "queue cycle {%s}: q%d capacity %d may not cover the \
                     cycle's in-flight tokens; suggest capacity >= %d"
                    members q (cap q) (List.length scc))
                tight
            end
          end)
        !sccs;
      p

    let invariants = []
  end)

let validate : Pass.pass =
  (module struct
    let name = "validate"
    let describe = "structural IR validation (Phloem_ir.Validate)"

    let run (_ : Pass.ctx) p =
      Phloem_ir.Validate.check p;
      p

    let invariants = []
  end)

(* Parameterized: clone the pipeline [spec.r_replicas] times with disjoint
   queue/RA namespaces (and optional data-centric distribution). Not part of
   [standard]; the multicore flow appends it explicitly. *)
let replicate (spec : Replicate.spec) : Pass.pass =
  (module struct
    let name = "replicate"

    let describe =
      Printf.sprintf "clone the pipeline into %d replicas" spec.Replicate.r_replicas

    let run (_ : Pass.ctx) p = Replicate.apply p spec
    let invariants = []
  end)

(* The standard single-pipeline compilation sequence for a given feature
   ladder. Scan-chaining needs both the RA substrate and inter-stage DCE.
   The deadlock guard runs after cleanup (dead queues are gone) and before
   the limit checks. *)
let standard ~(flags : Pass.flags) : Pass.pass list =
  [ decouple ]
  @ (if flags.Pass.f_ra && flags.Pass.f_dce && flags.Pass.f_chain then
       [ scan_chain ]
     else [])
  @ [ cleanup; check_deadlock; check_limits; validate ]
