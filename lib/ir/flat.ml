(* Compiled µop execution core (ROADMAP item 2; Kōika-style "compile the
   rule semantics, then simulate").

   The tree-walking interpreter (Interp) re-matches IR constructors for
   every executed op, which caps single-thread simulation throughput. This
   module lowers each pipeline stage ONCE into a flat, array-indexed µop
   program — integer opcodes with preresolved operand registers, array
   slots, queue ids, callee and branch-site indices held in contiguous int
   arrays — and executes it with a tight dispatch loop (an integer [match]
   over a dense opcode range compiles to a jump table).

   Equivalence contract: for any valid pipeline, the flat program emits a
   micro-op trace byte-identical to [Interp.run]'s — same op kinds,
   payloads, dependency tokens, RA sequence numbers, and budget-check
   count — because both paths share the same emission helpers
   ([Interp.push_alu] / [push_branch] / [Trace.push]), the same queue
   runtime and value primitives, and the same deterministic scheduler
   ([Interp.schedule]). The differential suite (test/test_flat.ml)
   enforces this across every workload. One knowing divergence, affecting
   only *invalid* programs: the tree path raises "unbound variable" when a
   variable is read before any assignment, while the flat path reads the
   register file's initial [Vint 0] — register allocation erases the
   bound/unbound distinction.

   Compilation is pure and per-pipeline: the resulting programs hold no
   mutable execution state (that all lives in the per-run register file
   and [Interp.state]), so they can be cached and shared across domains. *)

open Types
module I = Interp

(* --- opcodes (dense, so the dispatch match is a jump table) --- *)

let op_halt = 0
let op_const = 1
let op_mov = 2 (* pure register copy: no trace op, no budget charge *)
let op_binop = 3
let op_unop = 4
let op_load = 5
let op_store = 6
let op_atomic = 7 (* d: 0 = min, 1 = add *)
let op_prefetch = 8
let op_enq = 9
let op_enqc = 10
let op_enqi = 11
let op_deq = 12 (* c = handler entry pc or -1, d = handler cv register *)
let op_isctrl = 13
let op_payload = 14
let op_call = 15
let op_br = 16 (* a = site, b = cond reg, c = not-taken target *)
let op_jmp = 17
let op_forcmp = 18 (* a = site, b = loop var reg, c = bound reg, d = exit *)
let op_forinc = 19
let op_barrier = 20
let op_hend = 21 (* handler fell through: retry the originating dequeue *)
let op_exitn = 22 (* a = residual unwind depth, resolved via handler stack *)
let op_err = 23 (* a = message slot, b = index reg to coerce first (or -1) *)

(* Dense integer codes for the operator variants, so the instruction
   streams stay int-only; the executor indexes back into these tables. *)
let binop_table =
  [|
    Add; Sub; Mul; Div; Mod; Lt; Le; Gt; Ge; Eq; Ne; And; Or; Band; Bor; Bxor;
    Shl; Shr; Min; Max;
  |]

let unop_table = [| Neg; Not; To_int; To_float; Fabs |]

let code_of op table =
  let rec go i = if table.(i) = op then i else go (i + 1) in
  go 0

(* --- compiled form of one stage --- *)

type program = {
  fp_stage : string;
  fp_op : int array;
  fp_a : int array;
  fp_b : int array;
  fp_c : int array;
  fp_d : int array;
  fp_consts : value array;
  fp_arrays : string array; (* array slot -> declared array name *)
  fp_qtabs : int array array; (* Enq_indexed replica tables *)
  fp_callees : string array;
  fp_errs : string array; (* messages for op_err *)
  fp_unwind : int array array;
      (* per-pc, nonempty only at dequeue sites: exit pcs of the loops
         statically enclosing that dequeue in its compilation unit,
         innermost first — consulted when a control-value handler unwinds
         ([Exit_loops]) past its own loops *)
  fp_nregs : int;
  fp_param_regs : (string * int) list; (* pipeline params the stage reads *)
}

(* --- compiler --- *)

let expr_has_deq e =
  fold_expr (fun found e -> found || match e with Deq _ -> true | _ -> false) false e

type cctx = {
  cc_stage : string;
  cc_pipeline : pipeline;
  (* instruction stream under construction (reversed) *)
  mutable cc_ops : (int * int * int * int * int) list;
  mutable cc_n : int;
  (* pools (lists reversed) *)
  mutable cc_consts : value list;
  mutable cc_nconsts : int;
  cc_arrays : (string, int) Hashtbl.t;
  mutable cc_arr_names : string list;
  mutable cc_narrs : int;
  mutable cc_qtabs : int array list;
  mutable cc_nqtabs : int;
  cc_callees : (string, int) Hashtbl.t;
  mutable cc_callee_names : string list;
  mutable cc_ncallees : int;
  mutable cc_errs : string list;
  mutable cc_nerrs : int;
  (* register allocation: monotonic, never reused — a scratch register can
     therefore never be clobbered after it is written *)
  cc_vars : (string, int) Hashtbl.t;
  mutable cc_nregs : int;
  (* labels and backpatching *)
  mutable cc_labels : int array;
  mutable cc_nlabels : int;
  mutable cc_patches : (int * int * int) list; (* instr, field, label *)
  mutable cc_unwinds : (int * int list) list; (* deq pc, loop exit labels *)
  (* handler entries: queue id -> (entry label, control-value register) *)
  cc_handlers : (queue_id, int * int) Hashtbl.t;
  (* exit labels of loops enclosing the current emission point (innermost
     first), within the current compilation unit (stage body or one
     handler body) *)
  mutable cc_loops : int list;
  mutable cc_in_handler : bool;
}

let emit cc op a b c d =
  cc.cc_ops <- (op, a, b, c, d) :: cc.cc_ops;
  cc.cc_n <- cc.cc_n + 1;
  cc.cc_n - 1

let fresh_reg cc =
  let r = cc.cc_nregs in
  cc.cc_nregs <- r + 1;
  r

let var_reg cc x =
  match Hashtbl.find_opt cc.cc_vars x with
  | Some r -> r
  | None ->
    let r = fresh_reg cc in
    Hashtbl.replace cc.cc_vars x r;
    r

let const_slot cc v =
  let k = cc.cc_nconsts in
  cc.cc_consts <- v :: cc.cc_consts;
  cc.cc_nconsts <- k + 1;
  k

let err_slot cc msg =
  let k = cc.cc_nerrs in
  cc.cc_errs <- msg :: cc.cc_errs;
  cc.cc_nerrs <- k + 1;
  k

(* Arrays resolve to dense slots at compile time; referencing an undeclared
   array compiles to an [op_err] raised at the exact execution point (and
   after the same index coercion) where the tree interpreter would raise,
   preserving lazy runtime semantics for programs whose bad reference is
   never reached. *)
let array_slot cc name =
  if
    List.exists
      (fun (d : array_decl) -> d.a_name = name)
      cc.cc_pipeline.p_arrays
  then
    Ok
      (match Hashtbl.find_opt cc.cc_arrays name with
      | Some s -> s
      | None ->
        let s = cc.cc_narrs in
        Hashtbl.replace cc.cc_arrays name s;
        cc.cc_arr_names <- name :: cc.cc_arr_names;
        cc.cc_narrs <- s + 1;
        s)
  else Error (Printf.sprintf "unknown array %s" name)

let callee_slot cc f =
  match Hashtbl.find_opt cc.cc_callees f with
  | Some s -> s
  | None ->
    let s = cc.cc_ncallees in
    Hashtbl.replace cc.cc_callees f s;
    cc.cc_callee_names <- f :: cc.cc_callee_names;
    cc.cc_ncallees <- s + 1;
    s

let qtab_slot cc qs =
  let s = cc.cc_nqtabs in
  cc.cc_qtabs <- Array.copy qs :: cc.cc_qtabs;
  cc.cc_nqtabs <- s + 1;
  s

let new_label cc =
  let l = cc.cc_nlabels in
  if l >= Array.length cc.cc_labels then begin
    let grown = Array.make (max 16 (2 * Array.length cc.cc_labels)) (-1) in
    Array.blit cc.cc_labels 0 grown 0 (Array.length cc.cc_labels);
    cc.cc_labels <- grown
  end;
  cc.cc_nlabels <- l + 1;
  l

let bind_label cc l = cc.cc_labels.(l) <- cc.cc_n
let patch cc idx field l = cc.cc_patches <- (idx, field, l) :: cc.cc_patches
let is_var = function Var _ -> true | _ -> false

(* Copy a named-variable operand into a scratch register when a
   later-evaluated sibling expression may mutate it (the only in-statement
   mutators are control-value handlers running inside a [Deq]): the tree
   interpreter captures operand values and tokens in evaluation order, so
   the flat program must too. Compound operands land in scratch registers,
   which are never reused and hence never need shielding. *)
let shield cc r ~hazard ~e =
  if hazard && is_var e then begin
    let t = fresh_reg cc in
    ignore (emit cc op_mov t r 0 0);
    t
  end
  else r

(* Compile [e]; the result (value, token) lands in register [dst] if
   given, else in the expression's natural register (a variable's own
   register for [Var], a fresh scratch otherwise). Returns that register.
   Register reads happen strictly before the destination write at
   execution time, so [dst] may legally appear among the operands. *)
let rec compile_expr cc ?dst (e : expr) : int =
  let target () = match dst with Some d -> d | None -> fresh_reg cc in
  match e with
  | Const v ->
    let r = target () in
    ignore (emit cc op_const r (const_slot cc v) 0 0);
    r
  | Var x -> (
    let rx = var_reg cc x in
    match dst with
    | Some d when d <> rx ->
      ignore (emit cc op_mov d rx 0 0);
      d
    | Some d -> d
    | None -> rx)
  | Binop (op, a, b) ->
    let ra = compile_expr cc a in
    let ra = shield cc ra ~hazard:(expr_has_deq b) ~e:a in
    let rb = compile_expr cc b in
    let r = target () in
    ignore (emit cc op_binop r (code_of op binop_table) ra rb);
    r
  | Unop (op, a) ->
    let ra = compile_expr cc a in
    let r = target () in
    ignore (emit cc op_unop r (code_of op unop_table) ra 0);
    r
  | Load (arr, idx) ->
    let ri = compile_expr cc idx in
    let r = target () in
    (match array_slot cc arr with
    | Ok s -> ignore (emit cc op_load r s ri 0)
    | Error msg -> ignore (emit cc op_err (err_slot cc msg) ri 0 0));
    r
  | Deq q ->
    let r = target () in
    let entry, cv =
      match Hashtbl.find_opt cc.cc_handlers q with
      | Some (l, cv) -> (l, cv)
      | None -> (-1, -1)
    in
    let idx = emit cc op_deq r q (-1) cv in
    if entry >= 0 then patch cc idx 2 entry;
    cc.cc_unwinds <- (idx, cc.cc_loops) :: cc.cc_unwinds;
    r
  | Is_control a ->
    let ra = compile_expr cc a in
    let r = target () in
    ignore (emit cc op_isctrl r ra 0 0);
    r
  | Ctrl_payload a ->
    let ra = compile_expr cc a in
    let r = target () in
    ignore (emit cc op_payload r ra 0 0);
    r
  | Call (f, args) ->
    (* Every argument is evaluated (it may dequeue or touch memory); only
       the first two tokens and the first value feed the call's µops. *)
    let rec compile_args = function
      | [] -> []
      | a :: rest ->
        let ra = compile_expr cc a in
        let ra = shield cc ra ~hazard:(List.exists expr_has_deq rest) ~e:a in
        ra :: compile_args rest
    in
    let regs = compile_args args in
    let r1 = match regs with r :: _ -> r | [] -> -1 in
    let r2 = match regs with _ :: r :: _ -> r | _ -> -1 in
    let r = target () in
    ignore (emit cc op_call r (callee_slot cc f) r1 r2);
    r

(* Unwind [n] loop levels from the current emission point. Levels inside
   the current compilation unit resolve to a static jump; a handler
   unwinding past its own loops defers the residue to the runtime handler
   stack ([op_exitn]); unwinding past the stage body's outermost loop is
   the tree interpreter's "break outside of loop" runtime error. *)
let compile_unwind cc n =
  let loops = cc.cc_loops in
  if n <= List.length loops then begin
    let jidx = emit cc op_jmp (-1) 0 0 0 in
    patch cc jidx 0 (List.nth loops (n - 1))
  end
  else if cc.cc_in_handler then
    ignore (emit cc op_exitn (n - List.length loops) 0 0 0)
  else
    ignore
      (emit cc op_err
         (err_slot cc
            (Printf.sprintf "stage %s: break outside of loop" cc.cc_stage))
         (-1) 0 0)

let with_loop cc lexit f =
  let saved = cc.cc_loops in
  cc.cc_loops <- lexit :: saved;
  f ();
  cc.cc_loops <- saved

let rec compile_stmt cc (s : stmt) : unit =
  match s with
  | Assign (x, e) -> ignore (compile_expr cc ~dst:(var_reg cc x) e)
  | Store (arr, idx, e) ->
    let ri = compile_expr cc idx in
    let ri = shield cc ri ~hazard:(expr_has_deq e) ~e:idx in
    let re = compile_expr cc e in
    (match array_slot cc arr with
    | Ok s -> ignore (emit cc op_store s ri re 0)
    | Error msg -> ignore (emit cc op_err (err_slot cc msg) ri 0 0))
  | Atomic_min (arr, idx, e) | Atomic_add (arr, idx, e) ->
    let which = match s with Atomic_min _ -> 0 | _ -> 1 in
    let ri = compile_expr cc idx in
    let ri = shield cc ri ~hazard:(expr_has_deq e) ~e:idx in
    let re = compile_expr cc e in
    (match array_slot cc arr with
    | Ok sl -> ignore (emit cc op_atomic sl ri re which)
    | Error msg -> ignore (emit cc op_err (err_slot cc msg) ri 0 0))
  | Prefetch (arr, idx) ->
    let ri = compile_expr cc idx in
    (match array_slot cc arr with
    | Ok s -> ignore (emit cc op_prefetch s ri 0 0)
    | Error msg -> ignore (emit cc op_err (err_slot cc msg) ri 0 0))
  | Enq (q, e) ->
    let re = compile_expr cc e in
    ignore (emit cc op_enq q re 0 0)
  | Enq_ctrl (q, cv) -> ignore (emit cc op_enqc q cv 0 0)
  | Enq_indexed (qs, sel, e) ->
    let rs = compile_expr cc sel in
    let rs = shield cc rs ~hazard:(expr_has_deq e) ~e:sel in
    let re = compile_expr cc e in
    ignore (emit cc op_enqi (qtab_slot cc qs) rs re 0)
  | If (site, c, tb, fb) ->
    let rc = compile_expr cc c in
    let lelse = new_label cc and lend = new_label cc in
    let bidx = emit cc op_br site rc (-1) 0 in
    patch cc bidx 2 lelse;
    compile_block cc tb;
    let jidx = emit cc op_jmp (-1) 0 0 0 in
    patch cc jidx 0 lend;
    bind_label cc lelse;
    compile_block cc fb;
    bind_label cc lend
  | While (site, c, body) ->
    (* The condition is evaluated inside the loop's break scope: a handler
       breaking out of a dequeue embedded in the condition exits this
       loop, exactly as the tree interpreter's try-frame does. *)
    let lhead = new_label cc and lexit = new_label cc in
    bind_label cc lhead;
    with_loop cc lexit (fun () ->
        let rc = compile_expr cc c in
        let bidx = emit cc op_br site rc (-1) 0 in
        patch cc bidx 2 lexit;
        compile_block cc body);
    let jidx = emit cc op_jmp (-1) 0 0 0 in
    patch cc jidx 0 lhead;
    bind_label cc lexit
  | For (site, v, lo, hi, body) ->
    (* Bounds are evaluated outside the loop's break scope (tree: before
       the try-frame), and the bound value/token pair is captured once:
       pin it in a scratch register the body can never write. *)
    let rlo = compile_expr cc lo in
    let rlo = shield cc rlo ~hazard:(expr_has_deq hi) ~e:lo in
    let rhi0 = compile_expr cc hi in
    let rhi =
      if is_var hi then begin
        let t = fresh_reg cc in
        ignore (emit cc op_mov t rhi0 0 0);
        t
      end
      else rhi0
    in
    let rv = var_reg cc v in
    if rv <> rlo then ignore (emit cc op_mov rv rlo 0 0);
    let lhead = new_label cc and lexit = new_label cc in
    bind_label cc lhead;
    let fidx = emit cc op_forcmp site rv rhi (-1) in
    patch cc fidx 3 lexit;
    with_loop cc lexit (fun () -> compile_block cc body);
    ignore (emit cc op_forinc rv 0 0 0);
    let jidx = emit cc op_jmp (-1) 0 0 0 in
    patch cc jidx 0 lhead;
    bind_label cc lexit
  | Break -> compile_unwind cc 1
  | Exit_loops n -> if n > 0 then compile_unwind cc n
  | Barrier id -> ignore (emit cc op_barrier id 0 0 0)
  | Seq_marker _ -> ()

and compile_block cc stmts = List.iter (compile_stmt cc) stmts

let compile_stage (p : pipeline) (stg : stage) : program =
  let cc =
    {
      cc_stage = stg.s_name;
      cc_pipeline = p;
      cc_ops = [];
      cc_n = 0;
      cc_consts = [];
      cc_nconsts = 0;
      cc_arrays = Hashtbl.create 8;
      cc_arr_names = [];
      cc_narrs = 0;
      cc_qtabs = [];
      cc_nqtabs = 0;
      cc_callees = Hashtbl.create 8;
      cc_callee_names = [];
      cc_ncallees = 0;
      cc_errs = [];
      cc_nerrs = 0;
      cc_vars = Hashtbl.create 16;
      cc_nregs = 0;
      cc_labels = Array.make 16 (-1);
      cc_nlabels = 0;
      cc_patches = [];
      cc_unwinds = [];
      cc_handlers = Hashtbl.create 4;
      cc_loops = [];
      cc_in_handler = false;
    }
  in
  (* Handler entry labels and control-value registers exist before any
     dequeue site references them. *)
  List.iter
    (fun h ->
      Hashtbl.replace cc.cc_handlers h.h_queue
        (new_label cc, var_reg cc h.h_cv_var))
    stg.s_handlers;
  compile_block cc stg.s_body;
  ignore (emit cc op_halt 0 0 0 0);
  (* Handler bodies are appended as subroutines after the stage body; each
     is entered from a dequeue that popped a control value and ends by
     retrying that dequeue (op_hend) unless it unwound first. *)
  List.iter
    (fun h ->
      let entry, _ = Hashtbl.find cc.cc_handlers h.h_queue in
      bind_label cc entry;
      cc.cc_in_handler <- true;
      cc.cc_loops <- [];
      compile_block cc h.h_body;
      ignore (emit cc op_hend 0 0 0 0))
    stg.s_handlers;
  (* materialize the instruction stream and resolve labels *)
  let n = cc.cc_n in
  let fop = Array.make n 0
  and fa = Array.make n 0
  and fb = Array.make n 0
  and fc = Array.make n 0
  and fd = Array.make n 0 in
  List.iteri
    (fun k (o, x, y, z, w) ->
      let j = n - 1 - k in
      fop.(j) <- o;
      fa.(j) <- x;
      fb.(j) <- y;
      fc.(j) <- z;
      fd.(j) <- w)
    cc.cc_ops;
  List.iter
    (fun (idx, field, l) ->
      let pc = cc.cc_labels.(l) in
      match field with
      | 0 -> fa.(idx) <- pc
      | 2 -> fc.(idx) <- pc
      | 3 -> fd.(idx) <- pc
      | _ -> assert false)
    cc.cc_patches;
  let unwind = Array.make n [||] in
  List.iter
    (fun (pc, labels) ->
      unwind.(pc) <-
        Array.of_list (List.map (fun l -> cc.cc_labels.(l)) labels))
    cc.cc_unwinds;
  {
    fp_stage = stg.s_name;
    fp_op = fop;
    fp_a = fa;
    fp_b = fb;
    fp_c = fc;
    fp_d = fd;
    fp_consts = Array.of_list (List.rev cc.cc_consts);
    fp_arrays = Array.of_list (List.rev cc.cc_arr_names);
    fp_qtabs = Array.of_list (List.rev cc.cc_qtabs);
    fp_callees = Array.of_list (List.rev cc.cc_callee_names);
    fp_errs = Array.of_list (List.rev cc.cc_errs);
    fp_unwind = unwind;
    fp_nregs = cc.cc_nregs;
    fp_param_regs =
      List.filter_map
        (fun (x, _) ->
          Option.map (fun r -> (x, r)) (Hashtbl.find_opt cc.cc_vars x))
        p.p_params;
  }

let compile (p : pipeline) : program array =
  Array.of_list (List.map (compile_stage p) p.p_stages)

(* --- executor --- *)

let rterror msg = raise (I.Runtime_error msg)

(* One fiber body: executes [prog] against shared runtime state [st],
   emitting into thread trace [tr]. Driven by [Interp.schedule]; queue
   blocking and barriers use the interpreter's own [Wait] effect, so the
   scheduler cannot distinguish the two execution paths. *)
let exec_stage (st : I.state) (prog : program) ~(tr : Trace.thread_trace)
    (p : pipeline) () : I.step =
  let code = prog.fp_op
  and fa = prog.fp_a
  and fb = prog.fp_b
  and fc = prog.fp_c
  and fd = prog.fp_d in
  let consts = prog.fp_consts in
  let ar_name = prog.fp_arrays in
  let n_arr = Array.length ar_name in
  let ar_data = Array.make n_arr [||]
  and ar_base = Array.make n_arr 0
  and ar_esize = Array.make n_arr 0 in
  Array.iteri
    (fun s name ->
      let a = Hashtbl.find st.I.arrays name in
      ar_data.(s) <- a.I.st_data;
      ar_base.(s) <- a.I.st_base;
      ar_esize.(s) <- elem_size a.I.st_decl.a_ty)
    ar_name;
  (* Cost lookups are preresolved, but an unregistered callee must only
     fault if the call actually executes (lazy, like the tree path). *)
  let costs =
    Array.map
      (fun f ->
        match Hashtbl.find_opt st.I.call_costs f with
        | Some c -> c
        | None -> min_int)
      prog.fp_callees
  in
  let last_store = Array.make (max 1 n_arr) Trace.no_dep in
  let rv = Array.make (max 1 prog.fp_nregs) (Vint 0) in
  let rt = Array.make (max 1 prog.fp_nregs) Trace.no_dep in
  List.iter
    (fun (x, v) ->
      match List.assoc_opt x prog.fp_param_regs with
      | Some r ->
        rv.(r) <- v;
        rt.(r) <- Trace.no_dep
      | None -> ())
    p.p_params;
  (* Return pcs of dequeues whose control-value handler is running,
     innermost last. *)
  let hstack = ref (Array.make 8 0) in
  let hsp = ref 0 in
  let push_h pc =
    if !hsp >= Array.length !hstack then begin
      let g = Array.make (2 * Array.length !hstack) 0 in
      Array.blit !hstack 0 g 0 !hsp;
      hstack := g
    end;
    !hstack.(!hsp) <- pc;
    incr hsp
  in
  let oob s idx =
    rterror
      (Printf.sprintf "array %s: index %d out of bounds [0, %d)" ar_name.(s)
         idx
         (Array.length ar_data.(s)))
  in
  let pc = ref 0 in
  let running = ref true in
  while !running do
    let i = !pc in
    pc := i + 1;
    match code.(i) with
    | 0 (* halt *) -> running := false
    | 1 (* const *) ->
      let r = fa.(i) in
      rv.(r) <- consts.(fb.(i));
      rt.(r) <- Trace.no_dep
    | 2 (* mov *) ->
      let r = fa.(i) and s = fb.(i) in
      rv.(r) <- rv.(s);
      rt.(r) <- rt.(s)
    | 3 (* binop *) ->
      let ra = fc.(i) and rb = fd.(i) in
      let v = I.eval_binop binop_table.(fb.(i)) rv.(ra) rv.(rb) in
      let t = I.push_alu tr ~dep1:rt.(ra) ~dep2:rt.(rb) in
      let r = fa.(i) in
      rv.(r) <- v;
      rt.(r) <- t
    | 4 (* unop *) ->
      let ra = fc.(i) in
      let v = I.eval_unop unop_table.(fb.(i)) rv.(ra) in
      let t = I.push_alu tr ~dep1:rt.(ra) ~dep2:Trace.no_dep in
      let r = fa.(i) in
      rv.(r) <- v;
      rt.(r) <- t
    | 5 (* load *) ->
      let s = fb.(i) and ri = fc.(i) in
      let idx = I.as_int rv.(ri) in
      let data = ar_data.(s) in
      if idx < 0 || idx >= Array.length data then oob s idx;
      let esize = ar_esize.(s) in
      let tok =
        Trace.push tr ~kind:Trace.op_load
          ~pa:(ar_base.(s) + (idx * esize))
          ~dep1:rt.(ri) ~dep2:last_store.(s) ~dep3:Trace.no_dep
      in
      let r = fa.(i) in
      rv.(r) <- data.(idx);
      rt.(r) <- tok
    | 6 (* store *) ->
      let s = fa.(i) and ri = fb.(i) and re = fc.(i) in
      let idx = I.as_int rv.(ri) in
      let data = ar_data.(s) in
      if idx < 0 || idx >= Array.length data then oob s idx;
      let esize = ar_esize.(s) in
      let tok =
        Trace.push tr ~kind:Trace.op_store
          ~pa:(ar_base.(s) + (idx * esize))
          ~dep1:rt.(ri) ~dep2:rt.(re) ~dep3:last_store.(s)
      in
      last_store.(s) <- tok;
      data.(idx) <- rv.(re)
    | 7 (* atomic *) ->
      let s = fa.(i) and ri = fb.(i) and re = fc.(i) in
      let idx = I.as_int rv.(ri) in
      let data = ar_data.(s) in
      if idx < 0 || idx >= Array.length data then oob s idx;
      let esize = ar_esize.(s) in
      let tok =
        Trace.push tr ~kind:Trace.op_atomic
          ~pa:(ar_base.(s) + (idx * esize))
          ~dep1:rt.(ri) ~dep2:rt.(re) ~dep3:last_store.(s)
      in
      last_store.(s) <- tok;
      data.(idx) <-
        I.eval_binop (if fd.(i) = 0 then Min else Add) data.(idx) rv.(re)
    | 8 (* prefetch *) ->
      let s = fa.(i) and ri = fb.(i) in
      let idx = I.as_int rv.(ri) in
      if idx < 0 || idx >= Array.length ar_data.(s) then oob s idx;
      let esize = ar_esize.(s) in
      ignore
        (Trace.push tr ~kind:Trace.op_prefetch
           ~pa:(ar_base.(s) + (idx * esize))
           ~dep1:rt.(ri) ~dep2:Trace.no_dep ~dep3:Trace.no_dep)
    | 9 (* enq *) ->
      let q = fa.(i) and re = fb.(i) in
      ignore (I.queue_push st q rv.(re));
      ignore
        (Trace.push tr ~kind:Trace.op_enq ~pa:q ~dep1:rt.(re)
           ~dep2:Trace.no_dep ~dep3:Trace.no_dep)
    | 10 (* enq_ctrl *) ->
      let q = fa.(i) in
      ignore (I.queue_push st q (Vctrl fb.(i)));
      ignore
        (Trace.push tr ~kind:Trace.op_enq ~pa:q ~dep1:Trace.no_dep
           ~dep2:Trace.no_dep ~dep3:Trace.no_dep)
    | 11 (* enq_indexed *) ->
      let qs = prog.fp_qtabs.(fa.(i)) in
      let rs = fb.(i) and re = fc.(i) in
      let sel = I.as_int rv.(rs) in
      if sel < 0 || sel >= Array.length qs then
        rterror
          (Printf.sprintf
             "enq_indexed: replica selector %d out of range [0, %d)" sel
             (Array.length qs));
      let q = qs.(sel) in
      ignore (I.queue_push st q rv.(re));
      ignore
        (Trace.push tr ~kind:Trace.op_enq ~pa:q ~dep1:rt.(re)
           ~dep2:rt.(rs) ~dep3:Trace.no_dep)
    | 12 (* deq *) ->
      (* the one budget-charged dequeue attempt, shared with the tree
         path's [deq_with_handler] *)
      I.check_budget ();
      let q = fb.(i) in
      let v, _ = I.queue_pop st q in
      let tok =
        Trace.push tr ~kind:Trace.op_deq ~pa:q ~dep1:Trace.no_dep
          ~dep2:Trace.no_dep ~dep3:Trace.no_dep
      in
      let hpc = fc.(i) in
      if hpc >= 0 && value_is_ctrl v then begin
        let cv = fd.(i) in
        rv.(cv) <- v;
        rt.(cv) <- tok;
        push_h i;
        pc := hpc
      end
      else begin
        let r = fa.(i) in
        rv.(r) <- v;
        rt.(r) <- tok
      end
    | 13 (* is_control *) ->
      let ra = fb.(i) in
      let v = I.int_of_bool (value_is_ctrl rv.(ra)) in
      let t = I.push_alu tr ~dep1:rt.(ra) ~dep2:Trace.no_dep in
      let r = fa.(i) in
      rv.(r) <- v;
      rt.(r) <- t
    | 14 (* ctrl_payload *) ->
      let ra = fb.(i) in
      let v =
        match rv.(ra) with
        | Vctrl c -> Vint c
        | Vint _ | Vfloat _ -> rterror "ctrl_payload of data value"
      in
      let t = I.push_alu tr ~dep1:rt.(ra) ~dep2:Trace.no_dep in
      let r = fa.(i) in
      rv.(r) <- v;
      rt.(r) <- t
    | 15 (* call *) ->
      let ci = fb.(i) in
      let cost = costs.(ci) in
      if cost = min_int then
        rterror
          (Printf.sprintf "call to %s: no cost registered"
             prog.fp_callees.(ci));
      let r1 = fc.(i) and r2 = fd.(i) in
      let dep1 = if r1 >= 0 then rt.(r1) else Trace.no_dep in
      let dep2 = if r2 >= 0 then rt.(r2) else Trace.no_dep in
      let tok = ref (I.push_alu tr ~dep1 ~dep2) in
      for _ = 2 to cost do
        tok := I.push_alu tr ~dep1:!tok ~dep2:Trace.no_dep
      done;
      let v =
        if r1 < 0 then Vint cost
        else
          match rv.(r1) with
          | Vint x -> Vint (x * 2654435761 land 0x3FFFFFFF)
          | Vfloat f -> Vfloat (f *. 1.0001)
          | Vctrl _ ->
            rterror
              (Printf.sprintf "call %s: control value argument"
                 prog.fp_callees.(ci))
      in
      let r = fa.(i) in
      rv.(r) <- v;
      rt.(r) <- !tok
    | 16 (* br *) ->
      let rc = fb.(i) in
      let taken = I.as_bool rv.(rc) in
      I.push_branch tr ~site:fa.(i) ~taken ~dep:rt.(rc);
      if not taken then pc := fc.(i)
    | 17 (* jmp *) -> pc := fa.(i)
    | 18 (* forcmp *) ->
      let rvr = fb.(i) and rh = fc.(i) in
      let cond = I.as_int rv.(rvr) < I.as_int rv.(rh) in
      let tcmp = I.push_alu tr ~dep1:rt.(rvr) ~dep2:rt.(rh) in
      I.push_branch tr ~site:fa.(i) ~taken:cond ~dep:tcmp;
      if not cond then pc := fd.(i)
    | 19 (* forinc *) ->
      let r = fa.(i) in
      let t = I.push_alu tr ~dep1:rt.(r) ~dep2:Trace.no_dep in
      rv.(r) <- I.eval_binop Add rv.(r) (Vint 1);
      rt.(r) <- t
    | 20 (* barrier *) ->
      let id = fa.(i) in
      ignore
        (Trace.push tr ~kind:Trace.op_barrier ~pa:id
           ~dep1:Trace.no_dep ~dep2:Trace.no_dep ~dep3:Trace.no_dep);
      Effect.perform (I.Wait (I.Wait_barrier id))
    | 21 (* handler end: retry the dequeue that invoked it *) ->
      decr hsp;
      pc := !hstack.(!hsp)
    | 22 (* exitn *) ->
      let d = ref fa.(i) in
      let unwinding = ref true in
      while !unwinding do
        if !hsp = 0 then
          rterror
            (Printf.sprintf "stage %s: break outside of loop" prog.fp_stage);
        decr hsp;
        let dpc = !hstack.(!hsp) in
        let exits = prog.fp_unwind.(dpc) in
        let len = Array.length exits in
        if !d <= len then begin
          pc := exits.(!d - 1);
          unwinding := false
        end
        else d := !d - len
      done
    | 23 (* err *) ->
      let b = fb.(i) in
      if b >= 0 then ignore (I.as_int rv.(b));
      rterror prog.fp_errs.(fa.(i))
    | _ -> assert false
  done;
  I.Step_done

(* Compile-then-execute entry point: same signature and same observable
   behaviour as [Interp.run]. Pass [?programs] to reuse a compilation
   (Sim memoizes it per pipeline across a sweep). *)
let run ?(inputs = []) ?programs (p : pipeline) : I.result =
  let progs = match programs with Some ps -> ps | None -> compile p in
  let st = I.make_state ~inputs p in
  let trace = st.I.trace in
  let stage_bodies =
    List.mapi
      (fun i _ -> exec_stage st progs.(i) ~tr:trace.Trace.threads.(i) p)
      p.p_stages
  in
  let ra_body i (ra : ra_config) () =
    (try I.run_ra st ra trace.Trace.ras.(i) with I.Stop_ra -> ());
    I.Step_done
  in
  let bodies = Array.of_list (stage_bodies @ List.mapi ra_body p.p_ras) in
  I.schedule p st bodies;
  I.mk_result p st
