(* Phloem intermediate representation.

   A structured, fine-grain IR for irregular loop nests. Unlike conventional
   IRs, it has first-class queue operations and control values (paper Sec. V:
   "Phloem's IR adds support for queue operations and conveying control flow
   changes"). A serial program is a pipeline with a single stage; the compiler
   passes transform it into a multi-stage pipeline. *)

type value =
  | Vint of int
  | Vfloat of float
  | Vctrl of int  (* in-band control value; payload identifies the event *)

type var = string
type array_id = string
type queue_id = int

type elem_ty = Ety_int | Ety_float

(* Binary operators; arithmetic dispatches on the runtime value kind, and
   comparisons/logic return Vint 0/1. *)
type binop =
  | Add | Sub | Mul | Div | Mod
  | Lt | Le | Gt | Ge | Eq | Ne
  | And | Or
  | Band | Bor | Bxor | Shl | Shr
  | Min | Max

type unop = Neg | Not | To_int | To_float | Fabs

type expr =
  | Const of value
  | Var of var
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | Load of array_id * expr
  | Deq of queue_id
      (* Dequeue from a queue. If the stage installs a handler on the queue
         and the front value is a control value, the handler runs instead of
         returning the value. *)
  | Is_control of expr
  | Ctrl_payload of expr
  | Call of string * expr list
      (* Opaque compute (e.g. work()); cost configured per callee. *)

(* Loops and conditionals carry a unique site id used as the branch PC for
   the branch predictor and for naming decoupling points. *)
type stmt =
  | Assign of var * expr
  | Store of array_id * expr * expr  (* Store (a, idx, v): a[idx] <- v *)
  | Atomic_min of array_id * expr * expr
      (* a[idx] <- min (a[idx], v), atomically; used by data-parallel code. *)
  | Atomic_add of array_id * expr * expr
  | Prefetch of array_id * expr
      (* Warm the cache without consuming the value (race-safe decoupling). *)
  | Enq of queue_id * expr
  | Enq_ctrl of queue_id * int
  | Enq_indexed of queue_id array * expr * expr
      (* Enq_indexed (qs, sel, v): enqueue v to qs.(eval sel); used by
         [#pragma distribute] to send work to the matching replica. *)
  | If of int * expr * stmt list * stmt list
  | While of int * expr * stmt list
  | For of int * var * expr * expr * stmt list
      (* For (id, v, lo, hi, body): v from lo inclusive to hi exclusive. *)
  | Break
  | Exit_loops of int
      (* Unwind n enclosing loop levels. Emitted by control-value handlers. *)
  | Barrier of int
      (* All live stages synchronize (used between program phases). *)
  | Seq_marker of string  (* no-op label; keeps provenance through passes *)

(* A control value handler: when a Deq is about to return a control value on
   the handler's queue, the handler body runs with [h_cv_var] bound to the
   control value itself (use Ctrl_payload to inspect it). Falling off the end of the body retries the dequeue
   (skipping the control value). [Exit_loops n] aborts the dequeue and
   unwinds n loop levels in the stage code. *)
type handler = {
  h_queue : queue_id;
  h_cv_var : var;
  h_body : stmt list;
}

type ra_mode = Ra_indirect | Ra_scan

(* A reference accelerator interposed between two queues: it consumes
   indices (or start/end pairs) from [ra_in], fetches from [ra_array], and
   delivers values in order into [ra_out]. Control values pass through. *)
type ra_config = {
  ra_id : int;
  ra_in : queue_id;
  ra_out : queue_id;
  ra_array : array_id;
  ra_mode : ra_mode;
}

type stage = {
  s_name : string;
  s_body : stmt list;
  s_handlers : handler list;
}

type array_decl = {
  a_name : array_id;
  a_ty : elem_ty;
  a_len : int;
}

type queue_decl = {
  q_id : queue_id;
  q_capacity : int;
}

type pipeline = {
  p_name : string;
  p_stages : stage list;
  p_queues : queue_decl list;
  p_ras : ra_config list;
  p_arrays : array_decl list;
  p_params : (var * value) list;
      (* Scalars visible to every stage (problem sizes, constants). *)
  p_call_costs : (string * int) list;
      (* Cost in ALU micro-ops of each opaque callee. *)
}

(* Site ids must be unique only within one pipeline, but they double as the
   branch-predictor PC, so their *values* are part of the timing model's
   input. The atomic counter below hands out build-time ids (safe to call
   from any domain); [renumber_sites] then canonicalizes a finished pipeline
   to a preorder numbering so that identical programs always carry identical
   site ids, no matter how many pipelines were built before them or on which
   domain. Without this, predictor-table aliasing — and therefore cycle
   counts — would drift with global build history. *)
let site_counter = Atomic.make 0
let fresh_site () = Atomic.fetch_and_add site_counter 1 + 1

let renumber_sites (p : pipeline) : pipeline =
  let next = ref 0 in
  let fresh () =
    incr next;
    !next
  in
  let rec stmt = function
    | If (_, c, t, f) ->
      let id = fresh () in
      If (id, c, block t, block f)
    | While (_, c, b) ->
      let id = fresh () in
      While (id, c, block b)
    | For (_, v, lo, hi, b) ->
      let id = fresh () in
      For (id, v, lo, hi, block b)
    | ( Assign _ | Store _ | Atomic_min _ | Atomic_add _ | Prefetch _ | Enq _
      | Enq_ctrl _ | Enq_indexed _ | Break | Exit_loops _ | Barrier _
      | Seq_marker _ ) as s ->
      s
  and block b = List.map stmt b in
  let handler h = { h with h_body = block h.h_body } in
  let stage st =
    { st with s_body = block st.s_body; s_handlers = List.map handler st.s_handlers }
  in
  { p with p_stages = List.map stage p.p_stages }

(* --- the one read-only traversal ---

   Analyses that only look at the IR fold through these three instead of
   matching every constructor. They visit in evaluation order: pre-order,
   operands left to right, an [If]'s condition before its then-block and
   that before its else-block, a [For]'s [lo] and [hi] before its body.
   Check-deadlock's verdict, the order of def/use lists and which error
   [Validate] reports first all depend on that order. *)

(* [e] and every sub-expression of it, pre-order. *)
let rec fold_expr f acc e =
  let acc = f acc e in
  match e with
  | Const _ | Var _ | Deq _ -> acc
  | Binop (_, a, b) -> fold_expr f (fold_expr f acc a) b
  | Unop (_, a) | Is_control a | Ctrl_payload a | Load (_, a) -> fold_expr f acc a
  | Call (_, args) -> List.fold_left (fold_expr f) acc args

(* The expressions [s] evaluates itself, in evaluation order: a compound
   statement's condition or bounds, not its blocks. *)
let stmt_exprs = function
  | Assign (_, e) | Prefetch (_, e) | Enq (_, e) -> [ e ]
  | Store (_, i, v) | Atomic_min (_, i, v) | Atomic_add (_, i, v) | Enq_indexed (_, i, v) ->
    [ i; v ]
  | If (_, c, _, _) | While (_, c, _) -> [ c ]
  | For (_, _, lo, hi, _) -> [ lo; hi ]
  | Enq_ctrl _ | Break | Exit_loops _ | Barrier _ | Seq_marker _ -> []

(* Every statement of [block], nested ones included, pre-order. *)
let rec fold_stmts f acc block =
  List.fold_left
    (fun acc s ->
      let acc = f acc s in
      match s with
      | If (_, _, t, e) -> fold_stmts f (fold_stmts f acc t) e
      | While (_, _, b) | For (_, _, _, _, b) -> fold_stmts f acc b
      | Assign _ | Store _ | Atomic_min _ | Atomic_add _ | Prefetch _ | Enq _ | Enq_ctrl _
      | Enq_indexed _ | Break | Exit_loops _ | Barrier _ | Seq_marker _ ->
        acc)
    acc block

(* --- small accessors used across the compiler --- *)

let value_is_ctrl = function Vctrl _ -> true | Vint _ | Vfloat _ -> false

let value_to_string = function
  | Vint i -> string_of_int i
  | Vfloat f -> Printf.sprintf "%g" f
  | Vctrl c -> Printf.sprintf "CV(%d)" c

let elem_size = function Ety_int -> 4 | Ety_float -> 8

let binop_to_string = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Mod -> "%"
  | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">=" | Eq -> "==" | Ne -> "!="
  | And -> "&&" | Or -> "||"
  | Band -> "&" | Bor -> "|" | Bxor -> "^" | Shl -> "<<" | Shr -> ">>"
  | Min -> "min" | Max -> "max"

let unop_to_string = function
  | Neg -> "-" | Not -> "!" | To_int -> "(int)" | To_float -> "(float)"
  | Fabs -> "fabs"
