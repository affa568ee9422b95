(* Post passes on a generated pipeline:
   - scan chaining: a stage whose steady-state work is "dequeue a start/end
     pair, stream arr[start..end)" is replaced by a SCAN reference
     accelerator chained after the producing queue (paper Sec. III,
     "chained RAs").
   - stage elision: stages left with no effects (no stores, enqueues to live
     queues, or prefetches) are deleted together with their private queues.
   - queue compaction: surviving queues are renumbered densely. *)

open Phloem_ir.Types

(* Detect the scan shape inside a statement list; returns
   (pair_queue, out_queue_or_load) on success. Two flavors:
   - [a = deq q; b = deq q; for e in a..b { x = load arr e; enq qo x }]
   - [a = deq q; b = deq q; for e in a..b { enq qo e }]   (RA-fed variant)
   possibly wrapped in the control-value check produced by the CV pass. *)
type scan_match = {
  sm_pair_q : int;
  sm_body_kind : [ `Load of array_id * int (* out queue *) | `Index of int ];
}

let match_scan_region (body : stmt list) : scan_match option =
  let match_for a b = function
    | For (_, e, Var a', Var b', forbody) when a' = a && b' = b -> (
      match forbody with
      | [ Assign (x, Load (arr, Var e')); Enq (qo, Var x') ] when e' = e && x' = x ->
        Some (`Load (arr, qo))
      | [ Enq (qo, Var e') ] when e' = e -> Some (`Index qo)
      | _ -> None)
    | _ -> None
  in
  match body with
  | [ Assign (a, Deq q); Assign (b, Deq q'); forstmt ] when q = q' ->
    Option.map (fun k -> { sm_pair_q = q; sm_body_kind = k }) (match_for a b forstmt)
  | [ Assign (a, Deq q); If (_, Is_control (Var a'), _, [ Assign (b, Deq q'); forstmt ]) ]
    when q = q' && a' = a ->
    Option.map (fun k -> { sm_pair_q = q; sm_body_kind = k }) (match_for a b forstmt)
  | _ -> None

(* Find a while(1) whose body is a scan region anywhere in a stage body;
   returns the match and the body with that while removed. *)
let rec extract_scan (stmts : stmt list) : (scan_match * stmt list) option =
  match stmts with
  | [] -> None
  | While (site, Const (Vint 1), wbody) :: rest -> (
    match match_scan_region wbody with
    | Some m -> Some (m, rest)
    | None -> (
      match extract_scan wbody with
      | Some (m, wbody') -> Some (m, While (site, Const (Vint 1), wbody') :: rest)
      | None ->
        Option.map (fun (m, rest') -> (m, While (site, Const (Vint 1), wbody) :: rest'))
          (extract_scan rest)))
  | While (site, c, wbody) :: rest -> (
    match extract_scan wbody with
    | Some (m, wbody') -> Some (m, While (site, c, wbody') :: rest)
    | None ->
      Option.map (fun (m, rest') -> (m, While (site, c, wbody) :: rest'))
        (extract_scan rest))
  | For (site, v, lo, hi, fbody) :: rest -> (
    match extract_scan fbody with
    | Some (m, fbody') -> Some (m, For (site, v, lo, hi, fbody') :: rest)
    | None ->
      Option.map (fun (m, rest') -> (m, For (site, v, lo, hi, fbody) :: rest'))
        (extract_scan rest))
  | s :: rest -> Option.map (fun (m, rest') -> (m, s :: rest')) (extract_scan rest)

(* --- effect & queue usage analysis --- *)

let stmts_have_effect stmts =
  fold_stmts
    (fun found s ->
      found
      ||
      match s with
      | Store _ | Atomic_min _ | Atomic_add _ | Prefetch _ | Enq _ | Enq_ctrl _
      | Enq_indexed _ ->
        true
      | Assign _ | If _ | While _ | For _ | Break | Exit_loops _ | Barrier _
      | Seq_marker _ ->
        false)
    false stmts

(* The queues [st] dequeues from, handlers included. *)
let dequeued st = snd (Phloem_ir.Forensics.stage_queues st)

(* Remove enqueues targeting dead queues. *)
let rec prune_enqs dead stmts =
  List.filter_map
    (fun s ->
      match s with
      | Enq (q, _) when List.mem q dead -> None
      | Enq_ctrl (q, _) when List.mem q dead -> None
      | If (site, c, t, f) -> Some (If (site, c, prune_enqs dead t, prune_enqs dead f))
      | While (site, c, b) -> Some (While (site, c, prune_enqs dead b))
      | For (site, v, lo, hi, b) -> Some (For (site, v, lo, hi, prune_enqs dead b))
      | _ -> Some s)
    stmts

(* One chaining step: returns Some pipeline if something changed. *)
let chain_step (p : pipeline) : pipeline option =
  let rec try_stages before = function
    | [] -> None
    | st :: after -> (
      match extract_scan st.s_body with
      | None -> try_stages (before @ [ st ]) after
      | Some ({ sm_body_kind = `Load _; _ }, _)
        when List.length p.p_ras >= Pipette.Config.(default.max_ras) ->
        (* no RA left to allocate *)
        try_stages (before @ [ st ]) after
      | Some (m, residual_body) ->
        (* the extracted loop's control-value handler leaves with it: keep
           only handlers guarding queues the residual body still dequeues *)
        let residual =
          let deqs = dequeued { st with s_body = residual_body; s_handlers = [] } in
          {
            st with
            s_body = residual_body;
            s_handlers = List.filter (fun h -> List.mem h.h_queue deqs) st.s_handlers;
          }
        in
        (* Register the scan RA. *)
        let p' =
          match m.sm_body_kind with
          | `Load (arr, qo) ->
            let ra_id =
              1 + List.fold_left (fun a (r : ra_config) -> max a r.ra_id) (-1) p.p_ras
            in
            {
              p with
              p_ras =
                p.p_ras
                @ [
                    {
                      ra_id;
                      ra_in = m.sm_pair_q;
                      ra_out = qo;
                      ra_array = arr;
                      ra_mode = Ra_scan;
                    };
                  ];
            }
          | `Index qo ->
            (* retarget the existing indirect RA fed by qo *)
            {
              p with
              p_ras =
                List.map
                  (fun (r : ra_config) ->
                    if r.ra_in = qo then { r with ra_in = m.sm_pair_q; ra_mode = Ra_scan }
                    else r)
                  p.p_ras;
            }
        in
        (* If the residual stage has no effects, drop it entirely. *)
        let keep_stage = stmts_have_effect residual.s_body in
        let stages' =
          if keep_stage then before @ [ residual ] @ after else before @ after
        in
        Some { p' with p_stages = stages' })
  in
  try_stages [] p.p_stages

(* Drop queues nobody dequeues (after elision), pruning their enqueues. *)
(* Iterate: drop effect-free stages, orphaned handlers, queues nobody
   dequeues (pruning their enqueues), and RAs whose output is dead. *)
let cleanup (p : pipeline) : pipeline =
  let step p =
    (* stages with no observable effects disappear *)
    let stages =
      match List.filter (fun st -> stmts_have_effect st.s_body) p.p_stages with
      | [] -> p.p_stages
      | ss -> ss
    in
    (* handlers must guard queues their stage still dequeues *)
    let stages =
      List.map
        (fun st ->
          let deqs = dequeued { st with s_handlers = [] } in
          {
            st with
            s_handlers = List.filter (fun h -> List.mem h.h_queue deqs) st.s_handlers;
          })
        stages
    in
    let p = { p with p_stages = stages } in
    let live_deqs =
      List.concat_map dequeued p.p_stages
      @ List.map (fun (r : ra_config) -> r.ra_in) p.p_ras
    in
    (* RAs with a dead output are dead; their inputs die with them *)
    let dead_ras =
      List.filter (fun (r : ra_config) -> not (List.mem r.ra_out live_deqs)) p.p_ras
    in
    let ras = List.filter (fun r -> not (List.mem r dead_ras)) p.p_ras in
    let live_deqs =
      List.concat_map dequeued p.p_stages
      @ List.map (fun (r : ra_config) -> r.ra_in) ras
    in
    let dead =
      List.filter_map
        (fun (q : queue_decl) ->
          if List.mem q.q_id live_deqs then None else Some q.q_id)
        p.p_queues
    in
    {
      p with
      p_stages =
        List.map (fun st -> { st with s_body = prune_enqs dead st.s_body }) p.p_stages;
      p_ras = ras;
      p_queues = List.filter (fun q -> not (List.mem q.q_id dead)) p.p_queues;
    }
  in
  let rec go p =
    let p' = step p in
    if p' = p then p else go p'
  in
  go p

(* Scan-chaining alone (to a fixpoint), without the cleanup; run as its
   own pass so cleanup can run and be observed separately. *)
let chain (p : pipeline) : pipeline =
  let rec go p = match chain_step p with Some p' -> go p' | None -> p in
  go p

let apply (p : pipeline) : pipeline = cleanup (chain p)
