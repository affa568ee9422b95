(* Static well-formedness checks for pipelines. Run before interpreting or
   compiling: catches malformed queue wiring and scoping mistakes early, with
   messages that name the offending stage. *)

open Types

exception Invalid of string

let fail fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt

type queue_use = { mutable producers : string list; mutable consumers : string list }

(* Each statement's own check comes before its expressions, and those before
   its blocks: the first error reported is the first one met in evaluation
   order. *)
let rec scan_stmt ~stage ~arrays ~use_queue ~loop_depth s =
  let need_array what arr =
    if not (List.mem arr arrays) then fail "stage %s: %s undeclared array %s" stage what arr
  in
  (match s with
  | Store (arr, _, _) | Atomic_min (arr, _, _) | Atomic_add (arr, _, _) ->
    need_array "store to" arr
  | Prefetch (arr, _) -> need_array "prefetch of" arr
  | Enq (q, _) | Enq_ctrl (q, _) -> use_queue `Produce q
  | Enq_indexed (qs, _, _) -> Array.iter (use_queue `Produce) qs
  | Break -> if loop_depth = 0 then fail "stage %s: break outside of a loop" stage
  | Assign _ | If _ | While _ | For _ | Exit_loops _ | Barrier _ | Seq_marker _ -> ());
  List.iter
    (fold_expr
       (fun () e ->
         match e with
         | Load (arr, _) -> need_array "load from" arr
         | Deq q -> use_queue `Consume q
         | _ -> ())
       ())
    (stmt_exprs s);
  let block depth = List.iter (scan_stmt ~stage ~arrays ~use_queue ~loop_depth:depth) in
  match s with
  | If (_, _, t, f) ->
    block loop_depth t;
    block loop_depth f
  | While (_, _, body) | For (_, _, _, _, body) -> block (loop_depth + 1) body
  | Assign _ | Store _ | Atomic_min _ | Atomic_add _ | Prefetch _ | Enq _ | Enq_ctrl _
  | Enq_indexed _ | Break | Exit_loops _ | Barrier _ | Seq_marker _ ->
    ()

(* Raises [Invalid] on:
   - queue references to undeclared queues, arrays to undeclared arrays
   - queues with more than one consumer (FIFO matching requires one reader)
   - handlers installed on queues the stage never dequeues
   - break outside loops
   - RAs whose in/out queues coincide
   - a stage reading a name that is neither a param nor bound in that stage
     (an assignment target, a [for] variable or a handler variable):
     [Interp] raises on such a read, and [Flat] would read a zeroed
     register *)
let check (p : pipeline) =
  let declared = List.map (fun q -> q.q_id) p.p_queues in
  let arrays = List.map (fun a -> a.a_name) p.p_arrays in
  let uses = Hashtbl.create 16 in
  let get_use q =
    match Hashtbl.find_opt uses q with
    | Some u -> u
    | None ->
      let u = { producers = []; consumers = [] } in
      Hashtbl.replace uses q u;
      u
  in
  (* [who] prefixes the undeclared-queue error; [name] is the stage *)
  let use_queue ~who name kind q =
    if not (List.mem q declared) then fail "%s: undeclared queue q%d" who q;
    let u = get_use q in
    match kind with
    | `Produce -> if not (List.mem name u.producers) then u.producers <- name :: u.producers
    | `Consume -> if not (List.mem name u.consumers) then u.consumers <- name :: u.consumers
  in
  List.iter
    (fun stg ->
      let name = stg.s_name in
      List.iter
        (scan_stmt ~stage:name ~arrays ~use_queue:(use_queue ~who:name name) ~loop_depth:0)
        stg.s_body;
      List.iter
        (fun h ->
          if not (List.mem h.h_queue declared) then
            fail "stage %s: handler on undeclared queue q%d" name h.h_queue;
          (* Handler bodies run on the consumer thread; loop_depth 1 because
             they fire inside the stage's dequeue loops. *)
          List.iter
            (scan_stmt ~stage:name ~arrays
               ~use_queue:(use_queue ~who:(name ^ " handler") name)
               ~loop_depth:1)
            h.h_body)
        stg.s_handlers)
    p.p_stages;
  List.iter
    (fun ra ->
      if ra.ra_in = ra.ra_out then fail "ra%d: input and output queue coincide" ra.ra_id;
      if not (List.mem ra.ra_in declared) then fail "ra%d: undeclared input queue" ra.ra_id;
      if not (List.mem ra.ra_out declared) then fail "ra%d: undeclared output queue" ra.ra_id;
      if not (List.mem ra.ra_array arrays) then
        fail "ra%d: undeclared array %s" ra.ra_id ra.ra_array;
      let name = Printf.sprintf "ra%d" ra.ra_id in
      let uin = get_use ra.ra_in in
      uin.consumers <- name :: uin.consumers;
      let uout = get_use ra.ra_out in
      uout.producers <- name :: uout.producers)
    p.p_ras;
  Hashtbl.iter
    (fun q u ->
      match u.consumers with
      | [] | [ _ ] -> ()
      | cs -> fail "queue q%d has multiple consumers: %s" q (String.concat ", " cs))
    uses;
  (* Handlers must guard queues their own stage consumes. *)
  List.iter
    (fun stg ->
      List.iter
        (fun h ->
          let u = get_use h.h_queue in
          if not (List.mem stg.s_name u.consumers) then
            fail "stage %s: handler on q%d, which the stage never dequeues"
              stg.s_name h.h_queue)
        stg.s_handlers)
    p.p_stages;
  List.iter
    (fun stg ->
      let blocks = stg.s_body :: List.map (fun h -> h.h_body) stg.s_handlers in
      let bound = Hashtbl.create 16 in
      let bind x = Hashtbl.replace bound x () in
      List.iter (fun (x, _) -> bind x) p.p_params;
      List.iter (fun h -> bind h.h_cv_var) stg.s_handlers;
      List.iter
        (fold_stmts
           (fun () s ->
             match s with Assign (x, _) | For (_, x, _, _, _) -> bind x | _ -> ())
           ())
        blocks;
      let read () e =
        match e with
        | Var x when not (Hashtbl.mem bound x) ->
          fail "stage %s reads %s, which it never binds" stg.s_name x
        | _ -> ()
      in
      List.iter
        (fold_stmts (fun () s -> List.iter (fold_expr read ()) (stmt_exprs s)) ())
        blocks)
    p.p_stages
