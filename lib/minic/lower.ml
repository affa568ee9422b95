(* Type checking and lowering of minic ASTs into the Phloem IR.

   The [#pragma phloem] function becomes a single-stage serial pipeline body;
   the compiler passes later split it into stages. Array parameters become IR
   arrays (their lengths are bound at run time), scalar parameters become
   pipeline params, and extern functions become costed opaque calls. *)

open Ast
module I = Phloem_ir.Types

exception Error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

let int_max_value = 0x3FFFFFFF

type lowered = {
  lw_name : string;
  lw_body : I.stmt list;
  lw_arrays : (string * I.elem_ty) list; (* array params, lengths bound later *)
  lw_scalars : (string * I.elem_ty) list; (* scalar params *)
  lw_call_costs : (string * int) list;
  lw_pragmas : pragma list;
}

type env = {
  mutable vars : (string * ty) list;
  externs : (string * extern_decl) list;
  mutable n_tmp : int;
      (* per-lowering temp counter: lowering the same kernel twice must
         produce byte-identical IR (pipelines are digested for memoization),
         so temps cannot come from process-global state *)
}

let lookup_var env x =
  match List.assoc_opt x env.vars with
  | Some t -> t
  | None -> fail "unbound variable %s" x

let declare env x t =
  env.vars <- (x, t) :: env.vars

let elem_ty_of = function
  | Tint -> I.Ety_int
  | Tfloat -> I.Ety_float
  | t -> fail "unsupported element type %s" (ty_to_string t)

let ir_binop = function
  | Badd -> I.Add
  | Bsub -> I.Sub
  | Bmul -> I.Mul
  | Bdiv -> I.Div
  | Bmod -> I.Mod
  | Blt -> I.Lt
  | Ble -> I.Le
  | Bgt -> I.Gt
  | Bge -> I.Ge
  | Beq -> I.Eq
  | Bne -> I.Ne
  | Band -> I.And
  | Bor -> I.Or
  | Bband -> I.Band
  | Bbor -> I.Bor
  | Bbxor -> I.Bxor
  | Bshl -> I.Shl
  | Bshr -> I.Shr

let is_comparison = function
  | Blt | Ble | Bgt | Bge | Beq | Bne -> true
  | _ -> false

let is_logical = function Band | Bor -> true | _ -> false

let fresh_tmp env =
  env.n_tmp <- env.n_tmp + 1;
  Printf.sprintf "__t%d" env.n_tmp

(* Lowering an expression yields setup statements (for side-effecting
   sub-expressions like x++), the IR expression, and its type. *)
let rec lower_expr env (e : expr) : I.stmt list * I.expr * ty =
  match e with
  | Eint i -> ([], I.Const (I.Vint i), Tint)
  | Efloat f -> ([], I.Const (I.Vfloat f), Tfloat)
  | Evar "INT_MAX" -> ([], I.Const (I.Vint int_max_value), Tint)
  | Evar x -> ([], I.Var x, lookup_var env x)
  | Ebin (op, a, b) ->
    let sa, ea, ta = lower_expr env a in
    let sb, eb, tb = lower_expr env b in
    let ea, eb, ty = unify_operands ea ta eb tb in
    let result_ty =
      if is_comparison op || is_logical op then Tint
      else if is_logical op then Tint
      else ty
    in
    if (is_logical op || op = Bmod || op = Bband || op = Bbor || op = Bbxor
       || op = Bshl || op = Bshr)
       && ty <> Tint
    then fail "operator %s requires int operands" "logical/bitwise";
    (sa @ sb, I.Binop (ir_binop op, ea, eb), result_ty)
  | Eun (Uneg, a) ->
    let sa, ea, ta = lower_expr env a in
    (sa, I.Unop (I.Neg, ea), ta)
  | Eun (Unot, a) ->
    let sa, ea, _ = lower_expr env a in
    (sa, I.Unop (I.Not, ea), Tint)
  | Eun (Ucast_int, a) ->
    let sa, ea, _ = lower_expr env a in
    (sa, I.Unop (I.To_int, ea), Tint)
  | Eun (Ucast_float, a) ->
    let sa, ea, _ = lower_expr env a in
    (sa, I.Unop (I.To_float, ea), Tfloat)
  | Eindex (a, i) ->
    let elem =
      match lookup_var env a with
      | Tarray t -> t
      | t -> fail "%s has type %s, not an array" a (ty_to_string t)
    in
    let si, ei, ti = lower_expr env i in
    if ti <> Tint then fail "array index of %s must be int" a;
    (si, I.Load (a, ei), elem)
  | Ecall ("fabs", [ a ]) ->
    let sa, ea, ta = lower_expr env a in
    (sa, I.Unop (I.Fabs, ea), ta)
  | Ecall ("abs", [ a ]) ->
    let sa, ea, ta = lower_expr env a in
    (sa, I.Unop (I.Fabs, ea), ta)
  | Ecall (("min" | "fmin"), [ a; b ]) ->
    let sa, ea, ta = lower_expr env a in
    let sb, eb, tb = lower_expr env b in
    let ea, eb, ty = unify_operands ea ta eb tb in
    (sa @ sb, I.Binop (I.Min, ea, eb), ty)
  | Ecall (("max" | "fmax"), [ a; b ]) ->
    let sa, ea, ta = lower_expr env a in
    let sb, eb, tb = lower_expr env b in
    let ea, eb, ty = unify_operands ea ta eb tb in
    (sa @ sb, I.Binop (I.Max, ea, eb), ty)
  | Ecall (f, args) -> (
    match List.assoc_opt f env.externs with
    | None -> fail "call to unknown function %s (declare it extern)" f
    | Some decl ->
      if List.length args <> List.length decl.x_params then
        fail "%s expects %d arguments" f (List.length decl.x_params);
      let setups, irs =
        List.fold_left
          (fun (ss, es) a ->
            let sa, ea, _ = lower_expr env a in
            (ss @ sa, es @ [ ea ]))
          ([], []) args
      in
      (setups, I.Call (f, irs), decl.x_ret))
  | Epostincr x ->
    let t = lookup_var env x in
    if t <> Tint then fail "%s++ requires int" x;
    let tmp = fresh_tmp env in
    declare env tmp Tint;
    ( [ I.Assign (tmp, I.Var x); I.Assign (x, I.Binop (I.Add, I.Var x, I.Const (I.Vint 1))) ],
      I.Var tmp,
      Tint )

(* Implicit conversions: only int literals promote to float. *)
and unify_operands ea ta eb tb =
  match (ta, tb) with
  | Tint, Tint -> (ea, eb, Tint)
  | Tfloat, Tfloat -> (ea, eb, Tfloat)
  | Tfloat, Tint -> (
    match eb with
    | I.Const (I.Vint i) -> (ea, I.Const (I.Vfloat (float_of_int i)), Tfloat)
    | _ -> fail "mixing float and int operands; add an explicit cast")
  | Tint, Tfloat -> (
    match ea with
    | I.Const (I.Vint i) -> (I.Const (I.Vfloat (float_of_int i)), eb, Tfloat)
    | _ -> fail "mixing int and float operands; add an explicit cast")
  | _ -> fail "invalid operand types"

(* Assignment target typing: int literals coerce to float, anything else
   must match exactly. *)
let coerce_to target actual e ~what =
  match (target, actual, e) with
  | Tfloat, Tint, I.Const (I.Vint i) -> I.Const (I.Vfloat (float_of_int i))
  | Tfloat, Tint, _ | Tint, Tfloat, _ ->
    fail "type mismatch assigning to %s (expected %s, got %s)" what
      (ty_to_string target) (ty_to_string actual)
  | _ -> e

let rec lower_stmt env (s : stmt) : I.stmt list =
  match s with
  | Sdecl (ty, x, init) -> (
    declare env x ty;
    match init with
    | None ->
      [ I.Assign (x, I.Const (match ty with Tfloat -> I.Vfloat 0.0 | _ -> I.Vint 0)) ]
    | Some e ->
      let se, ee, te = lower_expr env e in
      let ee =
        match (ty, te, ee) with
        | Tfloat, Tint, I.Const (I.Vint i) -> I.Const (I.Vfloat (float_of_int i))
        | Tfloat, Tint, _ | Tint, Tfloat, _ ->
          fail "initializer type mismatch for %s" x
        | _ -> ee
      in
      se @ [ I.Assign (x, ee) ])
  | Sassign (Lvar x, e) ->
    let tx = lookup_var env x in
    let se, ee, te = lower_expr env e in
    let ee = coerce_to tx te ee ~what:x in
    se @ [ I.Assign (x, ee) ]
  | Sassign (Lindex (a, i), e) ->
    let elem =
      match lookup_var env a with Tarray t -> t | _ -> fail "%s is not an array" a
    in
    let si, ei, _ = lower_expr env i in
    let se, ee, te = lower_expr env e in
    let ee = coerce_to elem te ee ~what:(a ^ "[]") in
    si @ se @ [ I.Store (a, ei, ee) ]
  | Sop_assign (Lvar x, op, e) ->
    let se, ee, te = lower_expr env e in
    let tx = lookup_var env x in
    let ex, ee, _ = unify_operands (I.Var x) tx ee te in
    se @ [ I.Assign (x, I.Binop (ir_binop op, ex, ee)) ]
  | Sop_assign (Lindex (a, i), op, e) ->
    let elem =
      match lookup_var env a with Tarray t -> t | _ -> fail "%s is not an array" a
    in
    let si, ei, _ = lower_expr env i in
    let se, ee, te = lower_expr env e in
    let el, ee, _ = unify_operands (I.Load (a, ei)) elem ee te in
    si @ se @ [ I.Store (a, ei, I.Binop (ir_binop op, el, ee)) ]
  | Sincr (Lvar x) -> [ I.Assign (x, I.Binop (I.Add, I.Var x, I.Const (I.Vint 1))) ]
  | Sincr (Lindex (a, i)) ->
    let si, ei, _ = lower_expr env i in
    si @ [ I.Store (a, ei, I.Binop (I.Add, I.Load (a, ei), I.Const (I.Vint 1))) ]
  | Sexpr e ->
    let se, ee, _ = lower_expr env e in
    se @ [ I.Assign ("_", ee) ]
  | Sif (c, t, f) ->
    let sc, ec, _ = lower_expr env c in
    sc @ [ I.If (I.fresh_site (), ec, lower_block env t, lower_block env f) ]
  | Swhile (c, body) ->
    let sc, ec, _ = lower_expr env c in
    if sc <> [] then fail "side effects in while condition are unsupported";
    [ I.While (I.fresh_site (), ec, lower_block env body) ]
  | Sfor (init, cond, step, body) -> (
    (* Recognize the canonical counted loop; fall back to init+while. *)
    match (init, cond, step) with
    | ( Some (Sassign (Lvar i, lo)),
        Some (Ebin (Blt, Evar i', hi)),
        Some (Sincr (Lvar i'') | Sop_assign (Lvar i'', Badd, Eint 1)) )
      when i = i' && i = i'' ->
      if not (List.mem_assoc i env.vars) then declare env i Tint;
      let slo, elo, _ = lower_expr env lo in
      let shi, ehi, _ = lower_expr env hi in
      slo @ shi @ [ I.For (I.fresh_site (), i, elo, ehi, lower_block env body) ]
    | ( Some (Sdecl (Tint, i, Some lo)),
        Some (Ebin (Blt, Evar i', hi)),
        Some (Sincr (Lvar i'') | Sop_assign (Lvar i'', Badd, Eint 1)) )
      when i = i' && i = i'' ->
      declare env i Tint;
      let slo, elo, _ = lower_expr env lo in
      let shi, ehi, _ = lower_expr env hi in
      slo @ shi @ [ I.For (I.fresh_site (), i, elo, ehi, lower_block env body) ]
    | _ ->
      let init_ir = match init with None -> [] | Some s -> lower_stmt env s in
      let cond_ir, cond_e =
        match cond with
        | None -> ([], I.Const (I.Vint 1))
        | Some c ->
          let sc, ec, _ = lower_expr env c in
          if sc <> [] then fail "side effects in for condition are unsupported";
          (sc, ec)
      in
      let step_ir = match step with None -> [] | Some s -> lower_stmt env s in
      init_ir @ cond_ir
      @ [ I.While (I.fresh_site (), cond_e, lower_block env body @ step_ir) ])
  | Sbreak -> [ I.Break ]
  | Sreturn None -> []
  | Sreturn (Some _) -> fail "value-returning return in a pipeline kernel is unsupported"
  | Spragma Pdecouple -> [ I.Seq_marker "pragma:decouple" ]
  | Spragma _ -> []

and lower_block env stmts = List.concat_map (lower_stmt env) stmts

let lower_func (prog : program) (f : func) : lowered =
  let externs = List.map (fun x -> (x.x_name, x)) prog.externs in
  let env = { vars = []; externs; n_tmp = 0 } in
  let arrays = ref [] and scalars = ref [] in
  List.iter
    (fun p ->
      declare env p.p_name p.p_ty;
      match p.p_ty with
      | Tarray t -> arrays := (p.p_name, elem_ty_of t) :: !arrays
      | Tint -> scalars := (p.p_name, I.Ety_int) :: !scalars
      | Tfloat -> scalars := (p.p_name, I.Ety_float) :: !scalars
      | Tvoid -> fail "void parameter")
    f.f_params;
  let body = lower_block env f.f_body in
  {
    lw_name = f.f_name;
    lw_body = body;
    lw_arrays = List.rev !arrays;
    lw_scalars = List.rev !scalars;
    lw_call_costs = List.map (fun x -> (x.x_name, x.x_cost)) prog.externs;
    lw_pragmas = f.f_pragmas;
  }

(* Find and lower the function marked [#pragma phloem]. *)
let lower_kernel (prog : program) : lowered =
  match
    List.find_opt (fun f -> List.mem Pphloem f.f_pragmas) prog.funcs
  with
  | Some f -> lower_func prog f
  | None -> fail "no function marked with #pragma phloem"

(* Compile source text to a lowered kernel. Each distinct source is parsed
   and lowered once per process: every workload bind lowers its kernel's
   source, and phloemd's workers bind concurrently, so the table is the
   mutex-guarded [Fifo_cache] (forcing one [Lazy] from two domains at once
   raises). A lowered kernel is immutable, so binds share it. A source that
   fails to lower raises and is not kept. *)
let lowered_sources : (string, lowered) Phloem_util.Fifo_cache.t =
  Phloem_util.Fifo_cache.create ~capacity:64 ()

let of_source src =
  Phloem_util.Fifo_cache.find_or_add lowered_sources src (fun () ->
      lower_kernel (Parser.parse_program src))

(* Bind a lowered kernel to concrete inputs, producing a runnable serial
   pipeline. [arrays] supplies (name, values); [scalars] supplies parameter
   values. *)
let to_serial_pipeline ?(name = "") (lw : lowered)
    ~(arrays : (string * I.value array) list) ~(scalars : (string * I.value) list) :
    I.pipeline * (string * I.value array) list =
  let decls =
    List.map
      (fun (a, ty) ->
        match List.assoc_opt a arrays with
        | Some contents -> { I.a_name = a; a_ty = ty; a_len = Array.length contents }
        | None -> fail "array %s not bound" a)
      lw.lw_arrays
  in
  List.iter
    (fun (s, _) ->
      if not (List.mem_assoc s scalars) then fail "scalar parameter %s not bound" s)
    lw.lw_scalars;
  ( I.renumber_sites
      {
        I.p_name = (if name = "" then lw.lw_name else name);
        p_stages = [ { I.s_name = "serial"; s_body = lw.lw_body; s_handlers = [] } ];
        p_queues = [];
        p_ras = [];
        p_arrays = decls;
        p_params = scalars;
        p_call_costs = lw.lw_call_costs;
      },
    arrays )
