(* Normalization into fine-grain form: every memory access, call, and
   compound operation gets its own statement over atomic operands
   (variables/constants). This is the representation "that allows any two
   operations in a program to be decoupled" (paper Sec. V); the cost model
   and the decoupler both walk it, identifying loads by ordinal. *)

open Phloem_ir.Types

(* Temp names restart at __n1 for every [body] call: normalized output must
   be a pure function of its input (pipelines are digested for memoization,
   so recompiling the same kernel has to produce byte-identical IR), and a
   process-global counter would also race across pool domains. *)

let is_atom = function Const _ | Var _ -> true | _ -> false

let has_load e =
  fold_expr (fun found e -> found || match e with Load _ -> true | _ -> false) false e

(* Flatten an expression to an atom, emitting setup statements. *)
let rec atomize fresh acc e =
  match e with
  | Const _ | Var _ -> (acc, e)
  | _ ->
    let acc, e' = flatten_node fresh acc e in
    let t = fresh () in
    (acc @ [ Assign (t, e') ], Var t)

(* Flatten one level: children become atoms, the node itself survives. *)
and flatten_node fresh acc e =
  match e with
  | Const _ | Var _ -> (acc, e)
  | Binop (op, a, b) ->
    let acc, a = atomize fresh acc a in
    let acc, b = atomize fresh acc b in
    (acc, Binop (op, a, b))
  | Unop (op, a) ->
    let acc, a = atomize fresh acc a in
    (acc, Unop (op, a))
  | Load (arr, i) ->
    let acc, i = atomize fresh acc i in
    (acc, Load (arr, i))
  | Deq q -> (acc, Deq q)
  | Is_control a ->
    let acc, a = atomize fresh acc a in
    (acc, Is_control a)
  | Ctrl_payload a ->
    let acc, a = atomize fresh acc a in
    (acc, Ctrl_payload a)
  | Call (f, args) ->
    let acc, args =
      List.fold_left
        (fun (acc, rev) a ->
          let acc, a = atomize fresh acc a in
          (acc, a :: rev))
        (acc, []) args
    in
    (acc, Call (f, List.rev args))

(* A while condition stays inline only if it is a cheap load-free test;
   otherwise it is rewritten as while(1) { t = cond; if (!t) break; ... }. *)
let simple_cond e =
  match e with
  | Const _ | Var _ -> true
  | Binop (_, a, b) -> is_atom a && is_atom b && not (has_load e)
  | _ -> false

let rec norm_stmt fresh (s : stmt) : stmt list =
  match s with
  | Assign (x, e) ->
    let acc, e' = flatten_node fresh [] e in
    acc @ [ Assign (x, e') ]
  | Store (arr, i, v) ->
    let acc, i = atomize fresh [] i in
    let acc, v = atomize fresh acc v in
    acc @ [ Store (arr, i, v) ]
  | Atomic_min (arr, i, v) ->
    let acc, i = atomize fresh [] i in
    let acc, v = atomize fresh acc v in
    acc @ [ Atomic_min (arr, i, v) ]
  | Atomic_add (arr, i, v) ->
    let acc, i = atomize fresh [] i in
    let acc, v = atomize fresh acc v in
    acc @ [ Atomic_add (arr, i, v) ]
  | Prefetch (arr, i) ->
    let acc, i = atomize fresh [] i in
    acc @ [ Prefetch (arr, i) ]
  | Enq (q, e) ->
    let acc, e = atomize fresh [] e in
    acc @ [ Enq (q, e) ]
  | Enq_ctrl _ -> [ s ]
  | Enq_indexed (qs, sel, e) ->
    let acc, sel = atomize fresh [] sel in
    let acc, e = atomize fresh acc e in
    acc @ [ Enq_indexed (qs, sel, e) ]
  | If (site, c, t, f) ->
    let acc, c = atomize fresh [] c in
    acc @ [ If (site, c, norm_block fresh t, norm_block fresh f) ]
  | While (site, c, b) ->
    if simple_cond c then [ While (site, c, norm_block fresh b) ]
    else begin
      let acc, c' = atomize fresh [] c in
      let guard =
        acc @ [ If (fresh_site (), Unop (Not, c'), [ Break ], []) ]
      in
      [ While (site, Const (Vint 1), guard @ norm_block fresh b) ]
    end
  | For (site, v, lo, hi, b) ->
    let acc, lo = atomize fresh [] lo in
    let acc, hi = atomize fresh acc hi in
    acc @ [ For (site, v, lo, hi, norm_block fresh b) ]
  | Break | Exit_loops _ | Barrier _ | Seq_marker _ -> [ s ]

and norm_block fresh stmts = List.concat_map (norm_stmt fresh) stmts

let body stmts =
  let n = ref 0 in
  let fresh () =
    incr n;
    Printf.sprintf "__n%d" !n
  in
  norm_block fresh stmts
