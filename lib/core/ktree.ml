(* Keyed program tree: the decoupler's working representation. Each node of
   the normalized body gets a unique key so stage assignment, def/use
   analysis, and communication planning can reference positions stably. *)

open Phloem_ir.Types

type t =
  | Kstmt of int * stmt (* a simple (non-control) statement *)
  | Kif of int * int * expr * t list * t list (* key, site, cond *)
  | Kwhile of int * int * expr * t list
  | Kfor of int * int * var * expr * expr * t list

let key = function
  | Kstmt (k, _) | Kif (k, _, _, _, _) | Kwhile (k, _, _, _) | Kfor (k, _, _, _, _, _) -> k

(* Build a keyed tree from a normalized body; returns the tree and the
   number of keys. *)
let of_body (body : stmt list) : t list * int =
  let counter = ref 0 in
  let fresh () =
    let k = !counter in
    incr counter;
    k
  in
  let rec conv (s : stmt) : t =
    match s with
    | If (site, c, tb, fb) -> Kif (fresh (), site, c, List.map conv tb, List.map conv fb)
    | While (site, c, b) -> Kwhile (fresh (), site, c, List.map conv b)
    | For (site, v, lo, hi, b) -> Kfor (fresh (), site, v, lo, hi, List.map conv b)
    | Assign _ | Store _ | Atomic_min _ | Atomic_add _ | Prefetch _ | Enq _
    | Enq_ctrl _ | Enq_indexed _ | Break | Exit_loops _ | Barrier _ | Seq_marker _ ->
      Kstmt (fresh (), s)
  in
  let tree = List.map conv body in
  (tree, !counter)

let rec iter f node =
  f node;
  match node with
  | Kstmt _ -> ()
  | Kif (_, _, _, tb, fb) ->
    List.iter (iter f) tb;
    List.iter (iter f) fb
  | Kwhile (_, _, _, b) | Kfor (_, _, _, _, _, b) -> List.iter (iter f) b

let iter_list f nodes = List.iter (iter f) nodes

(* Variables read by an expression; each new one is consed onto [acc] as
   it is first read. *)
let expr_uses acc (e : expr) =
  fold_expr
    (fun acc e -> match e with Var x when not (List.mem x acc) -> x :: acc | _ -> acc)
    acc e

(* Variables read by a simple statement (not recursing into control). *)
let stmt_uses (s : stmt) : var list =
  match s with
  | If _ | While _ | For _ -> assert false
  | _ -> List.fold_left expr_uses [] (stmt_exprs s)

let stmt_def (s : stmt) : var option =
  match s with
  | Assign (x, _) -> Some x
  | Store _ | Atomic_min _ | Atomic_add _ | Prefetch _ | Enq _ | Enq_ctrl _
  | Enq_indexed _ | Break | Exit_loops _ | Barrier _ | Seq_marker _ -> None
  | If _ | While _ | For _ -> assert false

(* The load inside a simple statement, if any (normal form has at most one,
   and only in Assign right-hand sides). *)
let stmt_load (s : stmt) : (array_id * expr) option =
  match s with
  | Assign (_, Load (a, i)) -> Some (a, i)
  | _ -> None

let expr_is_pure (e : expr) =
  fold_expr
    (fun pure e ->
      pure
      &&
      match e with
      | Const _ | Var _ | Binop _ | Unop _ -> true
      | Load _ | Deq _ | Is_control _ | Ctrl_payload _ | Call _ -> false)
    true e
