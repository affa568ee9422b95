(* Functional interpreter for pipeline IR.

   Stages run as coroutines of a Kahn process network: a stage executes until
   it blocks on an empty queue (or a barrier), and a deterministic round-robin
   scheduler interleaves them. Queues are unbounded here — capacities only
   matter to the timing model. Reference accelerators run as daemon fibers.

   Besides computing the architectural result, execution emits a per-thread
   micro-op trace annotated with intra-thread data dependencies (see Trace);
   the Pipette timing engine replays these. *)

open Types

exception Runtime_error of string

let error fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

(* Unwinds [n] loop levels; used by break and control-value handlers. *)
exception Brk of int

(* --- runtime structures --- *)

type array_store = {
  st_decl : array_decl;
  st_data : value array;
  st_base : int; (* byte address of element 0 *)
}

type rt_queue = {
  rq_id : queue_id;
  rq_buf : value Queue.t;
  mutable rq_enq_count : int;
  mutable rq_deq_count : int;
}

type wait_reason =
  | Wait_queue of queue_id
  | Wait_barrier of int

type _ Effect.t += Wait : wait_reason -> unit Effect.t

type binding = { mutable b_value : value; mutable b_token : int }

type stage_ctx = {
  cx_thread : int;
  cx_trace : Trace.thread_trace;
  cx_env : (string, binding) Hashtbl.t;
  cx_handlers : (queue_id, handler) Hashtbl.t;
  (* Token of the most recent store to each array from this thread, used to
     order same-thread memory operations in the timing model. *)
  cx_last_store : (array_id, int) Hashtbl.t;
}

type state = {
  arrays : (array_id, array_store) Hashtbl.t;
  queues : rt_queue array;
  call_costs : (string, int) Hashtbl.t;
  trace : Trace.t;
}

(* --- results --- *)

exception Budget_exceeded

(* Guard against non-terminating or pathologically slow candidate
   pipelines during profile-guided search. The budget state is
   domain-local: concurrent [run]s under the parallel harness
   (Phloem_util.Pool) each count and enforce their own budget instead of
   racing on one shared counter. *)
type budget = { mutable bg_ops : int; mutable bg_limit : int }

let budget_key : budget Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { bg_ops = 0; bg_limit = 60_000_000 })

let max_ops () = (Domain.DLS.get budget_key).bg_limit

let with_max_ops n f =
  let b = Domain.DLS.get budget_key in
  let saved = b.bg_limit in
  b.bg_limit <- n;
  Fun.protect ~finally:(fun () -> b.bg_limit <- saved) f

type result = {
  r_arrays : (array_id * value array) list;
  r_trace : Trace.t;
  r_instrs : int;
  r_queue_traffic : int array; (* total values enqueued per queue *)
}

(* --- layout --- *)

let heap_base = 0x100000
let align64 n = (n + 63) land lnot 63

let layout_arrays decls contents =
  let tbl = Hashtbl.create 16 in
  let next = ref heap_base in
  List.iter
    (fun d ->
      let data =
        match List.assoc_opt d.a_name contents with
        | Some init ->
          if Array.length init <> d.a_len then
            error "array %s: declared length %d but %d values supplied" d.a_name
              d.a_len (Array.length init);
          Array.copy init
        | None ->
          Array.make d.a_len (match d.a_ty with Ety_int -> Vint 0 | Ety_float -> Vfloat 0.0)
      in
      let base = !next in
      next := align64 (base + (d.a_len * elem_size d.a_ty));
      Hashtbl.replace tbl d.a_name { st_decl = d; st_data = data; st_base = base })
    decls;
  tbl

(* --- value operations --- *)

let as_int = function
  | Vint i -> i
  | Vfloat f -> error "expected int, got float %g" f
  | Vctrl c -> error "expected int, got control value %d" c

let as_bool v = as_int v <> 0

let int_of_bool b = Vint (if b then 1 else 0)

let eval_binop op a b =
  match (op, a, b) with
  | Add, Vint x, Vint y -> Vint (x + y)
  | Sub, Vint x, Vint y -> Vint (x - y)
  | Mul, Vint x, Vint y -> Vint (x * y)
  | Div, Vint x, Vint y -> if y = 0 then error "division by zero" else Vint (x / y)
  | Mod, Vint x, Vint y -> if y = 0 then error "mod by zero" else Vint (x mod y)
  | Add, Vfloat x, Vfloat y -> Vfloat (x +. y)
  | Sub, Vfloat x, Vfloat y -> Vfloat (x -. y)
  | Mul, Vfloat x, Vfloat y -> Vfloat (x *. y)
  | Div, Vfloat x, Vfloat y -> Vfloat (x /. y)
  | Lt, Vint x, Vint y -> int_of_bool (x < y)
  | Le, Vint x, Vint y -> int_of_bool (x <= y)
  | Gt, Vint x, Vint y -> int_of_bool (x > y)
  | Ge, Vint x, Vint y -> int_of_bool (x >= y)
  | Eq, Vint x, Vint y -> int_of_bool (x = y)
  | Ne, Vint x, Vint y -> int_of_bool (x <> y)
  | Lt, Vfloat x, Vfloat y -> int_of_bool (x < y)
  | Le, Vfloat x, Vfloat y -> int_of_bool (x <= y)
  | Gt, Vfloat x, Vfloat y -> int_of_bool (x > y)
  | Ge, Vfloat x, Vfloat y -> int_of_bool (x >= y)
  | Eq, Vfloat x, Vfloat y -> int_of_bool (x = y)
  | Ne, Vfloat x, Vfloat y -> int_of_bool (x <> y)
  | And, Vint x, Vint y -> int_of_bool (x <> 0 && y <> 0)
  | Or, Vint x, Vint y -> int_of_bool (x <> 0 || y <> 0)
  | Band, Vint x, Vint y -> Vint (x land y)
  | Bor, Vint x, Vint y -> Vint (x lor y)
  | Bxor, Vint x, Vint y -> Vint (x lxor y)
  | Shl, Vint x, Vint y -> Vint (x lsl y)
  | Shr, Vint x, Vint y -> Vint (x lsr y)
  | Min, Vint x, Vint y -> Vint (min x y)
  | Max, Vint x, Vint y -> Vint (max x y)
  | Min, Vfloat x, Vfloat y -> Vfloat (min x y)
  | Max, Vfloat x, Vfloat y -> Vfloat (max x y)
  | _, _, _ ->
    error "type error: %s applied to %s and %s" (binop_to_string op)
      (value_to_string a) (value_to_string b)

let eval_unop op a =
  match (op, a) with
  | Neg, Vint x -> Vint (-x)
  | Neg, Vfloat x -> Vfloat (-.x)
  | Not, Vint x -> int_of_bool (x = 0)
  | To_int, Vfloat x -> Vint (int_of_float x)
  | To_int, Vint x -> Vint x
  | To_float, Vint x -> Vfloat (float_of_int x)
  | To_float, Vfloat x -> Vfloat x
  | Fabs, Vfloat x -> Vfloat (abs_float x)
  | Fabs, Vint x -> Vint (abs x)
  | _, _ ->
    error "type error: %s applied to %s" (unop_to_string op) (value_to_string a)

(* --- micro-op emission helpers --- *)

let check_budget () =
  let b = Domain.DLS.get budget_key in
  b.bg_ops <- b.bg_ops + 1;
  if b.bg_ops > b.bg_limit then raise Budget_exceeded

(* These two (plus the dequeue attempt below) are the *only* budget-check
   sites; the compiled executor (Flat) shares them so both execution paths
   exhaust a budget after exactly the same number of emitted ops. *)
let push_alu tr ~dep1 ~dep2 =
  check_budget ();
  Trace.push tr ~kind:Trace.op_alu ~pa:0 ~dep1 ~dep2 ~dep3:Trace.no_dep

let push_branch tr ~site ~taken ~dep =
  check_budget ();
  ignore
    (Trace.push tr ~kind:Trace.op_branch
       ~pa:((site lsl 1) lor if taken then 1 else 0)
       ~dep1:dep ~dep2:Trace.no_dep ~dep3:Trace.no_dep)

(* --- queue runtime --- *)

let rec queue_pop st q =
  let rq = st.queues.(q) in
  if Queue.is_empty rq.rq_buf then begin
    Effect.perform (Wait (Wait_queue q));
    queue_pop st q
  end
  else begin
    let v = Queue.pop rq.rq_buf in
    let seq = rq.rq_deq_count in
    rq.rq_deq_count <- seq + 1;
    (v, seq)
  end

let queue_push st q v =
  let rq = st.queues.(q) in
  Queue.push v rq.rq_buf;
  let seq = rq.rq_enq_count in
  rq.rq_enq_count <- seq + 1;
  seq

(* --- expression evaluation --- *)

let lookup cx x =
  match Hashtbl.find_opt cx.cx_env x with
  | Some b -> b
  | None -> error "stage %d: unbound variable %s" cx.cx_thread x

let assign cx x v t =
  match Hashtbl.find_opt cx.cx_env x with
  | Some b ->
    b.b_value <- v;
    b.b_token <- t
  | None -> Hashtbl.replace cx.cx_env x { b_value = v; b_token = t }

let array_addr st arr idx =
  match Hashtbl.find_opt st.arrays arr with
  | None -> error "unknown array %s" arr
  | Some a ->
    if idx < 0 || idx >= Array.length a.st_data then
      error "array %s: index %d out of bounds [0, %d)" arr idx
        (Array.length a.st_data);
    (a, a.st_base + (idx * elem_size a.st_decl.a_ty))

let last_store_token cx arr =
  match Hashtbl.find_opt cx.cx_last_store arr with Some t -> t | None -> Trace.no_dep

(* Evaluates an expression, returning the value and the trace token of the
   op that produced it (no_dep when it came for free, e.g. a constant). *)
let rec eval st cx e : value * int =
  match e with
  | Const v -> (v, Trace.no_dep)
  | Var x ->
    let b = lookup cx x in
    (b.b_value, b.b_token)
  | Binop (op, a, b) ->
    let va, ta = eval st cx a in
    let vb, tb = eval st cx b in
    let v = eval_binop op va vb in
    (v, push_alu cx.cx_trace ~dep1:ta ~dep2:tb)
  | Unop (op, a) ->
    let va, ta = eval st cx a in
    (eval_unop op va, push_alu cx.cx_trace ~dep1:ta ~dep2:Trace.no_dep)
  | Load (arr, idx) ->
    let vi, ti = eval st cx idx in
    let a, addr = array_addr st arr (as_int vi) in
    let tok =
      Trace.push cx.cx_trace ~kind:Trace.op_load ~pa:addr ~dep1:ti
        ~dep2:(last_store_token cx arr) ~dep3:Trace.no_dep
    in
    (a.st_data.(as_int vi), tok)
  | Deq q -> deq_with_handler st cx q
  | Is_control e ->
    let v, t = eval st cx e in
    (int_of_bool (value_is_ctrl v), push_alu cx.cx_trace ~dep1:t ~dep2:Trace.no_dep)
  | Ctrl_payload e ->
    let v, t = eval st cx e in
    let payload =
      match v with Vctrl c -> Vint c | Vint _ | Vfloat _ -> error "ctrl_payload of data value"
    in
    (payload, push_alu cx.cx_trace ~dep1:t ~dep2:Trace.no_dep)
  | Call (f, args) ->
    let evaluated = List.map (eval st cx) args in
    let cost =
      match Hashtbl.find_opt st.call_costs f with
      | Some c -> c
      | None -> error "call to %s: no cost registered" f
    in
    (* An opaque call is modeled as [cost] chained ALU ops; the first
       consumes the arguments, the result carries the last op's token. *)
    let dep1, dep2 =
      match evaluated with
      | [] -> (Trace.no_dep, Trace.no_dep)
      | [ (_, t) ] -> (t, Trace.no_dep)
      | (_, t1) :: (_, t2) :: _ -> (t1, t2)
    in
    let tok = ref (push_alu cx.cx_trace ~dep1 ~dep2) in
    for _ = 2 to cost do
      tok := push_alu cx.cx_trace ~dep1:!tok ~dep2:Trace.no_dep
    done;
    (* A deterministic opaque mixing function keeps results checkable. *)
    let v =
      match evaluated with
      | [] -> Vint cost
      | (v0, _) :: _ -> (
        match v0 with
        | Vint i -> Vint ((i * 2654435761) land 0x3FFFFFFF)
        | Vfloat f -> Vfloat (f *. 1.0001)
        | Vctrl _ -> error "call %s: control value argument" f)
    in
    (v, !tok)

(* Dequeue with control-value handler support. Recording the deq op happens
   on every pop (the hardware dequeues control values too); when a handler is
   installed and a control value arrives, the handler body runs with the
   payload bound, then the dequeue is retried (fall-through) or aborted
   (Exit_loops). *)
and deq_with_handler st cx q : value * int =
  check_budget ();
  let v, _ = queue_pop st q in
  let tok =
    Trace.push cx.cx_trace ~kind:Trace.op_deq ~pa:q ~dep1:Trace.no_dep
      ~dep2:Trace.no_dep ~dep3:Trace.no_dep
  in
  match (v, Hashtbl.find_opt cx.cx_handlers q) with
  | Vctrl _, Some h ->
    (* the handler sees the raw control value; Ctrl_payload extracts the id *)
    assign cx h.h_cv_var v tok;
    exec_block st cx h.h_body;
    deq_with_handler st cx q
  | _, _ -> (v, tok)

(* --- statement execution --- *)

and exec_block st cx stmts = List.iter (exec_stmt st cx) stmts

and exec_stmt st cx s =
  match s with
  | Assign (x, e) ->
    let v, t = eval st cx e in
    assign cx x v t
  | Store (arr, idx, e) ->
    let vi, ti = eval st cx idx in
    let v, tv = eval st cx e in
    let a, addr = array_addr st arr (as_int vi) in
    let tok =
      Trace.push cx.cx_trace ~kind:Trace.op_store ~pa:addr ~dep1:ti
        ~dep2:tv ~dep3:(last_store_token cx arr)
    in
    Hashtbl.replace cx.cx_last_store arr tok;
    a.st_data.(as_int vi) <- v
  | Atomic_min (arr, idx, e) ->
    let vi, ti = eval st cx idx in
    let v, tv = eval st cx e in
    let a, addr = array_addr st arr (as_int vi) in
    let tok =
      Trace.push cx.cx_trace ~kind:Trace.op_atomic ~pa:addr ~dep1:ti
        ~dep2:tv ~dep3:(last_store_token cx arr)
    in
    Hashtbl.replace cx.cx_last_store arr tok;
    let i = as_int vi in
    a.st_data.(i) <- eval_binop Min a.st_data.(i) v
  | Atomic_add (arr, idx, e) ->
    let vi, ti = eval st cx idx in
    let v, tv = eval st cx e in
    let a, addr = array_addr st arr (as_int vi) in
    let tok =
      Trace.push cx.cx_trace ~kind:Trace.op_atomic ~pa:addr ~dep1:ti
        ~dep2:tv ~dep3:(last_store_token cx arr)
    in
    Hashtbl.replace cx.cx_last_store arr tok;
    let i = as_int vi in
    a.st_data.(i) <- eval_binop Add a.st_data.(i) v
  | Prefetch (arr, idx) ->
    let vi, ti = eval st cx idx in
    let _, addr = array_addr st arr (as_int vi) in
    ignore
      (Trace.push cx.cx_trace ~kind:Trace.op_prefetch ~pa:addr ~dep1:ti
         ~dep2:Trace.no_dep ~dep3:Trace.no_dep)
  | Enq (q, e) ->
    let v, tv = eval st cx e in
    ignore (queue_push st q v);
    ignore
      (Trace.push cx.cx_trace ~kind:Trace.op_enq ~pa:q ~dep1:tv
         ~dep2:Trace.no_dep ~dep3:Trace.no_dep)
  | Enq_ctrl (q, cv) ->
    ignore (queue_push st q (Vctrl cv));
    ignore
      (Trace.push cx.cx_trace ~kind:Trace.op_enq ~pa:q ~dep1:Trace.no_dep
         ~dep2:Trace.no_dep ~dep3:Trace.no_dep)
  | Enq_indexed (qs, sel, e) ->
    let vs, ts = eval st cx sel in
    let v, tv = eval st cx e in
    let i = as_int vs in
    if i < 0 || i >= Array.length qs then
      error "enq_indexed: replica selector %d out of range [0, %d)" i
        (Array.length qs);
    ignore (queue_push st qs.(i) v);
    ignore
      (Trace.push cx.cx_trace ~kind:Trace.op_enq ~pa:qs.(i) ~dep1:tv
         ~dep2:ts ~dep3:Trace.no_dep)
  | If (site, c, tb, fb) ->
    let v, t = eval st cx c in
    let taken = as_bool v in
    push_branch cx.cx_trace ~site ~taken ~dep:t;
    exec_block st cx (if taken then tb else fb)
  | While (site, c, body) -> (
    let rec loop () =
      let v, t = eval st cx c in
      let taken = as_bool v in
      push_branch cx.cx_trace ~site ~taken ~dep:t;
      if taken then begin
        exec_block st cx body;
        loop ()
      end
    in
    try loop () with
    | Brk 1 -> ()
    | Brk n -> raise (Brk (n - 1)))
  | For (site, v, lo, hi, body) -> (
    let vlo, tlo = eval st cx lo in
    let vhi, thi = eval st cx hi in
    assign cx v vlo tlo;
    let rec loop () =
      let b = lookup cx v in
      let cond = as_int b.b_value < as_int vhi in
      let tcmp = push_alu cx.cx_trace ~dep1:b.b_token ~dep2:thi in
      push_branch cx.cx_trace ~site ~taken:cond ~dep:tcmp;
      if cond then begin
        exec_block st cx body;
        let b = lookup cx v in
        let t' = push_alu cx.cx_trace ~dep1:b.b_token ~dep2:Trace.no_dep in
        assign cx v (eval_binop Add b.b_value (Vint 1)) t';
        loop ()
      end
    in
    try loop () with
    | Brk 1 -> ()
    | Brk n -> raise (Brk (n - 1)))
  | Break -> raise (Brk 1)
  | Exit_loops n -> if n > 0 then raise (Brk n)
  | Barrier id ->
    ignore
      (Trace.push cx.cx_trace ~kind:Trace.op_barrier ~pa:id
         ~dep1:Trace.no_dep ~dep2:Trace.no_dep ~dep3:Trace.no_dep);
    Effect.perform (Wait (Wait_barrier id))
  | Seq_marker _ -> ()

(* --- reference accelerator fibers --- *)

exception Stop_ra

let run_ra st (ra : ra_config) (rt : Trace.ra_trace) =
  let arr =
    match Hashtbl.find_opt st.arrays ra.ra_array with
    | Some a -> a
    | None -> error "RA %d: unknown array %s" ra.ra_id ra.ra_array
  in
  let esize = elem_size arr.st_decl.a_ty in
  let fetch idx in_seq =
    if idx < 0 || idx >= Array.length arr.st_data then
      error "RA %d on %s: index %d out of bounds" ra.ra_id ra.ra_array idx;
    let out_seq = queue_push st ra.ra_out arr.st_data.(idx) in
    Trace.ra_push rt ~in_seq ~out_seq ~addr:(arr.st_base + (idx * esize))
  in
  let passthrough v in_seq =
    let out_seq = queue_push st ra.ra_out v in
    Trace.ra_push rt ~in_seq ~out_seq ~addr:(-1)
  in
  (* record that an input element was consumed without producing output
     (scan range bounds, empty ranges); the timing model frees the input
     queue slot when it replays this entry. *)
  let consume_only in_seq = Trace.ra_push rt ~in_seq ~out_seq:(-1) ~addr:(-2) in
  match ra.ra_mode with
  | Ra_indirect ->
    let rec loop () =
      let v, in_seq = queue_pop st ra.ra_in in
      (match v with
      | Vctrl _ -> passthrough v in_seq
      | Vint idx -> fetch idx in_seq
      | Vfloat _ -> error "RA %d: float index" ra.ra_id);
      loop ()
    in
    loop ()
  | Ra_scan ->
    let rec loop () =
      let v, in_seq = queue_pop st ra.ra_in in
      (match v with
      | Vctrl _ -> passthrough v in_seq
      | Vint start ->
        let rec get_end () =
          let v2, in_seq2 = queue_pop st ra.ra_in in
          match v2 with
          | Vctrl _ ->
            passthrough v2 in_seq2;
            get_end ()
          | Vint e -> (e, in_seq2)
          | Vfloat _ -> error "RA %d: float scan bound" ra.ra_id
        in
        let stop, in_seq2 = get_end () in
        consume_only in_seq;
        if stop <= start then consume_only in_seq2
        else
          for i = start to stop - 1 do
            fetch i in_seq2
          done
      | Vfloat _ -> error "RA %d: float scan bound" ra.ra_id);
      loop ()
    in
    loop ()

(* --- scheduler --- *)

type fiber_status =
  | Not_started
  | Runnable
  | Blocked of wait_reason
  | Done

type step =
  | Step_done
  | Step_blocked of wait_reason * (unit, step) Effect.Deep.continuation

(* A wedged queue network raises [Forensics.Pipeline_failure] with a
   structured report (per-agent blocked-on state, cyclic wait chain,
   occupancy snapshot) instead of a bare string exception. *)

(* Fresh runtime state for one execution of [p]. Shared by the tree-walking
   interpreter below and the compiled executor (Flat): both paths must see
   identical array layout, queue state, and a zeroed op budget. *)
let make_state ?(inputs = []) (p : pipeline) : state =
  (Domain.DLS.get budget_key).bg_ops <- 0;
  let n_stages = List.length p.p_stages in
  let n_ras = List.length p.p_ras in
  let n_queues =
    List.fold_left (fun acc q -> max acc (q.q_id + 1)) 0 p.p_queues
  in
  {
    arrays = layout_arrays p.p_arrays inputs;
    queues =
      Array.init n_queues (fun i ->
          { rq_id = i; rq_buf = Queue.create (); rq_enq_count = 0; rq_deq_count = 0 });
    call_costs =
      (let tbl = Hashtbl.create 8 in
       List.iter (fun (f, c) -> Hashtbl.replace tbl f c) p.p_call_costs;
       tbl);
    trace = Trace.create ~n_threads:n_stages ~n_ras ~n_queues;
  }

(* Package the architectural result of a finished execution. This is the
   one point where both execution paths publish a trace, so it is sealed
   here: every column trimmed to its exact length. *)
let mk_result (p : pipeline) (st : state) : result =
  let trace = st.trace in
  Trace.seal trace;
  trace.Trace.total_ops <- Trace.op_count trace;
  {
    r_arrays =
      List.map
        (fun d -> (d.a_name, Array.copy (Hashtbl.find st.arrays d.a_name).st_data))
        p.p_arrays;
    r_trace = trace;
    r_instrs = trace.Trace.total_ops;
    r_queue_traffic = Array.map (fun rq -> rq.rq_enq_count) st.queues;
  }

(* Deterministic round-robin scheduler over the fiber [bodies] (user stages
   first, then RA daemons). Runs until every user stage finishes, or raises
   the structured deadlock report when no fiber can make progress. Both
   execution paths (tree-walking and Flat) drive their fibers through this
   one scheduler, so interleavings — and therefore queue sequence numbers
   and forensics reports — are identical by construction. *)
let schedule (p : pipeline) (st : state) (bodies : (unit -> step) array) : unit =
  let trace = st.trace in
  let n_stages = List.length p.p_stages in
  let n_fibers = Array.length bodies in
  let status = Array.make n_fibers Not_started in
  let conts :
      (unit, step) Effect.Deep.continuation option array =
    Array.make n_fibers None
  in
  let is_user i = i < n_stages in
  let handle_step i (s : step) =
    match s with
    | Step_done ->
      status.(i) <- Done;
      conts.(i) <- None
    | Step_blocked (r, k) ->
      status.(i) <- Blocked r;
      conts.(i) <- Some k
  in
  let start_fiber i =
    let open Effect.Deep in
    handle_step i
      (match_with bodies.(i) ()
         {
           retc = Fun.id;
           exnc = raise;
           effc =
             (fun (type a) (eff : a Effect.t) ->
               match eff with
               | Wait r ->
                 Some
                   (fun (k : (a, step) continuation) -> Step_blocked (r, k))
               | _ -> None);
         })
  in
  let resume_fiber i =
    match conts.(i) with
    | None -> ()
    | Some k ->
      conts.(i) <- None;
      status.(i) <- Runnable;
      handle_step i (Effect.Deep.continue k ())
  in
  let queue_nonempty q = not (Queue.is_empty st.queues.(q).rq_buf) in
  let user_stages_all_done () =
    let rec loop i = i >= n_stages || (status.(i) = Done && loop (i + 1)) in
    loop 0
  in
  (* Barrier release: every non-done user fiber is parked on the same id. *)
  let barrier_ready id =
    let rec loop i =
      if i >= n_stages then true
      else
        match status.(i) with
        | Done -> loop (i + 1)
        | Blocked (Wait_barrier id') when id' = id -> loop (i + 1)
        | Not_started | Runnable | Blocked _ -> false
    in
    loop 0
  in
  let progress = ref true in
  while (not (user_stages_all_done ())) && !progress do
    progress := false;
    for i = 0 to n_fibers - 1 do
      (* Skip RA daemons once all user work is finished. *)
      if is_user i || not (user_stages_all_done ()) then
        match status.(i) with
        | Not_started ->
          progress := true;
          status.(i) <- Runnable;
          start_fiber i
        | Blocked (Wait_queue q) when queue_nonempty q ->
          progress := true;
          resume_fiber i
        | Blocked (Wait_barrier id) when barrier_ready id ->
          progress := true;
          (* Release every participant of this barrier instance. *)
          for j = 0 to n_stages - 1 do
            match status.(j) with
            | Blocked (Wait_barrier id') when id' = id -> resume_fiber j
            | Not_started | Runnable | Blocked _ | Done -> ()
          done
        | Runnable | Blocked _ | Done -> ()
    done
  done;
  if not (user_stages_all_done ()) then begin
    let names = Forensics.agent_names p in
    let _, producers, _ = Forensics.queue_users p in
    let agents =
      List.init n_fibers (fun i ->
          {
            Forensics.ag_id = i;
            ag_name =
              (if i < Array.length names then names.(i)
               else Printf.sprintf "agent%d" i);
            ag_blocked =
              (match status.(i) with
              | Blocked (Wait_queue q) -> Forensics.On_queue_empty q
              | Blocked (Wait_barrier b) -> Forensics.On_barrier b
              | Done -> Forensics.Finished
              | Not_started | Runnable -> Forensics.Running);
            ag_done_ops =
              (if is_user i then Trace.length trace.threads.(i)
               else Trace.ra_length trace.ras.(i - n_stages));
            ag_total_ops = -1;
          })
    in
    let wait_cycle = Forensics.wait_cycle p agents in
    let queues =
      List.filter_map
        (fun rq ->
          let occ = Queue.length rq.rq_buf in
          if occ = 0 && rq.rq_enq_count = 0 then None
          else
            Some
              { Forensics.qo_id = rq.rq_id; qo_occupancy = occ; qo_capacity = -1 })
        (Array.to_list st.queues)
    in
    let diagnosis =
      (if wait_cycle <> [] then
         [
           "every agent on the cyclic wait chain is starved on a queue that \
            only another agent on the chain can fill; the network can never \
            make progress";
         ]
       else [])
      @ List.filter_map
          (fun (a : Forensics.agent_report) ->
            match a.ag_blocked with
            | Forensics.On_queue_empty q when q < Array.length producers && producers.(q) = [] ->
              Some
                (Printf.sprintf "%s dequeues q%d, but no stage or RA ever enqueues into it"
                   a.ag_name q)
            | _ -> None)
          agents
    in
    Forensics.fail
      {
        Forensics.fr_kind = Forensics.Deadlock;
        fr_pipeline = p.p_name;
        fr_at = Trace.op_count trace;
        fr_agents = agents;
        fr_queues = queues;
        fr_wait_cycle = wait_cycle;
        fr_injected = 0;
        fr_diagnosis = diagnosis;
      }
  end

let run ?(inputs = []) (p : pipeline) : result =
  let st = make_state ~inputs p in
  let trace = st.trace in
  (* Fiber bodies: user stages first, then RA daemons. *)
  let stage_body i (stg : stage) () =
    let cx =
      {
        cx_thread = i;
        cx_trace = trace.Trace.threads.(i);
        cx_env = Hashtbl.create 32;
        cx_handlers =
          (let tbl = Hashtbl.create 4 in
           List.iter (fun h -> Hashtbl.replace tbl h.h_queue h) stg.s_handlers;
           tbl);
        cx_last_store = Hashtbl.create 8;
      }
    in
    List.iter (fun (x, v) -> assign cx x v Trace.no_dep) p.p_params;
    (try exec_block st cx stg.s_body
     with Brk _ -> error "stage %s: break outside of loop" stg.s_name);
    Step_done
  in
  let ra_body i (ra : ra_config) () =
    (try run_ra st ra trace.Trace.ras.(i) with Stop_ra -> ());
    Step_done
  in
  let bodies =
    Array.of_list (List.mapi stage_body p.p_stages @ List.mapi ra_body p.p_ras)
  in
  schedule p st bodies;
  mk_result p st
