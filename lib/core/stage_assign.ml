(* Stage assignment and context construction for the decouple pass.

   Phase A walks the keyed tree and assigns every statement to a pipeline
   stage according to the selected cuts (a prefetch-only cut puts the stage
   boundary *before* its load; a normal cut puts it after). Phase B derives
   the analysis context the later phases share: def positions, enclosing
   loops/ifs, induction variables, init replication, and movable-initializer
   sinking. *)

open Phloem_ir.Types
module K = Ktree

type context = {
  flags : Pass.flags;
  tree : K.t list;
  n_keys : int;
  stage_of : int array; (* key -> stage; -1 for control nodes *)
  load_ord : int array; (* key -> load ordinal or -1 *)
  prefetch_from : (int, int) Hashtbl.t; (* load key -> producer stage *)
  cut_head_keys : (int, unit) Hashtbl.t; (* keys of normal-cut loads (RA candidates) *)
  n_stages : int;
  parent_loops : (int, int list) Hashtbl.t; (* key -> enclosing loop keys, inner first *)
  ancestors : (int, int list) Hashtbl.t; (* key -> enclosing control nodes, inner first *)
  parent_ifs : (int, int list) Hashtbl.t; (* key -> enclosing If keys, inner first *)
  def_keys : (var, int list) Hashtbl.t;
  def_stages : (var, int list) Hashtbl.t;
  replicated : (var, unit) Hashtbl.t; (* vars whose every def is init-replicated *)
  replicated_keys : (int, unit) Hashtbl.t;
  induction_of : (var, int) Hashtbl.t; (* induction var -> loop key *)
  params : var list;
  key_node : K.t option array;
}

(* ---------- phase A: stage assignment ---------- *)

let assign_stages tree n_keys (cuts : Costmodel.cut list) =
  let stage_of = Array.make n_keys (-1) in
  let load_ord = Array.make n_keys (-1) in
  let prefetch_from = Hashtbl.create 4 in
  let cut_head_keys = Hashtbl.create 4 in
  (* ordinal -> cut info *)
  let cut_start = Hashtbl.create 8 in
  let cut_end = Hashtbl.create 8 in
  List.iter
    (fun (c : Costmodel.cut) ->
      let first = List.hd c.cut_loads in
      let last = List.nth c.cut_loads (List.length c.cut_loads - 1) in
      Hashtbl.replace cut_start first c;
      Hashtbl.replace cut_end last c)
    cuts;
  let ordinal = ref 0 in
  let stage = ref 0 in
  K.iter_list
    (function
      | K.Kstmt (k, stmt) -> (
        match K.stmt_load stmt with
        | None -> stage_of.(k) <- !stage
        | Some _ ->
          let o = !ordinal in
          incr ordinal;
          load_ord.(k) <- o;
          (match Hashtbl.find_opt cut_start o with
          | Some c when c.Costmodel.cut_prefetch ->
            (* boundary before the load; producer prefetches *)
            Hashtbl.replace prefetch_from k !stage;
            incr stage
          | Some _ | None -> ());
          stage_of.(k) <- !stage;
          (match Hashtbl.find_opt cut_end o with
          | Some c when not c.Costmodel.cut_prefetch ->
            Hashtbl.replace cut_head_keys k ();
            incr stage
          | Some _ | None -> ());
          (* non-tail members of a normal cut group are also RA-mergeable *)
          (match Hashtbl.find_opt cut_start o with
          | Some c when (not c.Costmodel.cut_prefetch) && List.length c.Costmodel.cut_loads > 1
            ->
            Hashtbl.replace cut_head_keys k ()
          | _ -> ()))
      | K.Kif _ | K.Kwhile _ | K.Kfor _ -> ())
    tree;
  (* middle members of normal groups: mark them too *)
  K.iter_list
    (function
      | K.Kstmt (k, stmt) when Option.is_some (K.stmt_load stmt) ->
        let o = load_ord.(k) in
        List.iter
          (fun (c : Costmodel.cut) ->
            if (not c.Costmodel.cut_prefetch) && List.mem o c.Costmodel.cut_loads then
              Hashtbl.replace cut_head_keys k ())
          cuts
      | _ -> ())
    tree;
  (stage_of, load_ord, prefetch_from, cut_head_keys, !stage + 1)

(* ---------- phase B: context construction ---------- *)

let build_context ?(flags = Pass.all_passes) ~params tree n_keys cuts =
  let stage_of, load_ord, prefetch_from, cut_head_keys, n_stages =
    assign_stages tree n_keys cuts
  in
  let parent_loops = Hashtbl.create 32 in
  let def_keys = Hashtbl.create 32 in
  let def_stages = Hashtbl.create 32 in
  let induction_of = Hashtbl.create 8 in
  let key_node = Array.make n_keys None in
  let add_def x k =
    let cur = try Hashtbl.find def_keys x with Not_found -> [] in
    Hashtbl.replace def_keys x (cur @ [ k ]);
    let s = stage_of.(k) in
    let cur = try Hashtbl.find def_stages x with Not_found -> [] in
    if not (List.mem s cur) then Hashtbl.replace def_stages x (s :: cur)
  in
  let rec walk loops nodes =
    List.iter
      (fun node ->
        key_node.(K.key node) <- Some node;
        Hashtbl.replace parent_loops (K.key node) loops;
        match node with
        | K.Kstmt (k, stmt) -> (
          match K.stmt_def stmt with Some x -> add_def x k | None -> ())
        | K.Kif (_, _, _, t, f) ->
          walk loops t;
          walk loops f
        | K.Kwhile (k, _, _, b) -> walk (k :: loops) b
        | K.Kfor (k, _, v, _, _, b) ->
          Hashtbl.replace induction_of v k;
          walk (k :: loops) b)
      nodes
  in
  walk [] tree;
  (* control ancestors: all enclosing control nodes (loops and ifs), and the
     enclosing If keys alone; used by the consumer/recompute analyses. *)
  let ancestors = Hashtbl.create n_keys in
  let parent_ifs = Hashtbl.create n_keys in
  let rec anc path ifs nodes =
    List.iter
      (fun node ->
        Hashtbl.replace ancestors (K.key node) path;
        Hashtbl.replace parent_ifs (K.key node) ifs;
        match node with
        | K.Kstmt _ -> ()
        | K.Kif (k, _, _, t, f) ->
          anc (k :: path) (k :: ifs) t;
          anc (k :: path) (k :: ifs) f
        | K.Kwhile (k, _, _, b) | K.Kfor (k, _, _, _, _, b) -> anc (k :: path) ifs b)
      nodes
  in
  anc [] [] tree;
  (* Sink movable initializers: a pure constant-ish def of a variable whose
     remaining defs all live in one stage moves to that stage (e.g. an
     accumulator reset at the top of an outer loop, accumulated downstream). *)
  Hashtbl.iter
    (fun x dks ->
      let stages = List.sort_uniq compare (List.map (fun k -> stage_of.(k)) dks) in
      if List.length stages > 1 then begin
        let movable k =
          match key_node.(k) with
          | Some (K.Kstmt (_, Assign (_, rhs))) -> (
            match rhs with
            | Const _ -> true
            | Var y | Binop (_, Var y, Const _) | Binop (_, Const _, Var y) ->
              List.mem y params
            | _ -> false)
          | _ -> false
        in
        let fixed = List.filter (fun k -> not (movable k)) dks in
        let fixed_stages = List.sort_uniq compare (List.map (fun k -> stage_of.(k)) fixed) in
        match fixed_stages with
        | [ t ] ->
          List.iter (fun k -> if movable k then stage_of.(k) <- t) dks;
          Hashtbl.replace def_stages x [ t ]
        | _ -> ()
      end)
    def_keys;
  (* init replication: depth-0 pure defs over params/other replicated vars,
     plus depth-0 constant stores handled at emission. *)
  let replicated = Hashtbl.create 8 in
  let replicated_keys = Hashtbl.create 8 in
  let changed = ref true in
  while !changed do
    changed := false;
    let scan_node node =
      match node with
      | K.Kstmt (k, Assign (x, rhs))
        when Hashtbl.find parent_loops k = [] && K.expr_is_pure rhs
             && not (Hashtbl.mem replicated_keys k) ->
        let ops = K.expr_uses [] rhs in
        let avail v = List.mem v params || Hashtbl.mem replicated v in
        if List.for_all avail ops then begin
          Hashtbl.replace replicated_keys k ();
          changed := true;
          (* a var is fully local everywhere if ALL its defs replicate *)
          let dks = try Hashtbl.find def_keys x with Not_found -> [] in
          if List.for_all (fun dk -> Hashtbl.mem replicated_keys dk) dks then
            Hashtbl.replace replicated x ()
        end
      | K.Kstmt _ | K.Kif _ | K.Kwhile _ | K.Kfor _ -> ()
    in
    K.iter_list scan_node tree
  done;
  {
    flags;
    tree;
    n_keys;
    stage_of;
    load_ord;
    prefetch_from;
    cut_head_keys;
    n_stages;
    parent_loops;
    ancestors;
    parent_ifs;
    def_keys;
    def_stages;
    replicated;
    replicated_keys;
    induction_of;
    params;
    key_node;
  }

(* ---------- context helpers shared by the later phases ---------- *)

let node_cond_vars node =
  match node with
  | K.Kif (_, _, c, _, _) -> K.expr_uses [] c
  | K.Kwhile (_, _, c, _) -> K.expr_uses [] c
  | K.Kfor (_, _, _, lo, hi, _) -> K.expr_uses (K.expr_uses [] lo) hi
  | K.Kstmt _ -> []

(* Innermost enclosing loop key, or -1 at top level. *)
let innermost ctx k =
  match Hashtbl.find ctx.parent_loops k with [] -> -1 | l :: _ -> l

let def_keys_of ctx x = try Hashtbl.find ctx.def_keys x with Not_found -> []

let nonrep_defs ctx x =
  List.filter (fun k -> not (Hashtbl.mem ctx.replicated_keys k)) (def_keys_of ctx x)

(* A cursor: x's non-replicated defs [ks] span exactly two stages t < u and
   every def in t is a cut load (SpMM's merge indices: loaded in an early
   stage, advanced by a later one). Returns (t, u). *)
let cursor_stages ctx ks =
  match List.sort_uniq compare (List.map (fun k -> ctx.stage_of.(k)) ks) with
  | [ t; u ]
    when List.for_all (fun k -> ctx.stage_of.(k) <> t || Hashtbl.mem ctx.cut_head_keys k) ks
    ->
    Some (t, u)
  | _ -> None

(* The stage that produces x for communication purposes. Normally all
   non-replicated defs live in one stage. A cursor is also fine: its early
   defs are communicated, the later ones are local (and [check_cursors]
   makes sure no other stage reads the stale copy). Anything else is
   rejected. *)
let def_stage_of ctx x =
  match nonrep_defs ctx x with
  | [] -> None
  | ks -> (
    match List.sort_uniq compare (List.map (fun k -> ctx.stage_of.(k)) ks) with
    | [ s ] -> Some s
    | stages -> (
      match cursor_stages ctx ks with
      | Some (t, _) -> Some t
      | None ->
        Pass.reject "variable %s is defined in multiple stages %s" x
          (String.concat "," (List.map string_of_int stages))))

(* The cursor rule. Only the advancing stage u updates its copy of a
   cursor, so any other stage that reads it inside a loop enclosing one of
   u's defs sees a stale value: with SpMM's merge loop cut between its two
   loads, one stage evaluates [i1 < e1 && j1 < e2] on copies it never
   advances and never stops. A read is a statement's operand in its owner
   stage or a control node's condition in the [cond_stages] that evaluate
   it; a While's own condition counts as inside it, a For's bounds do not.
   Only variables with defs in two or more stages can be cursors. They are
   checked in name order, nodes in program order, so the reported
   violation is deterministic. *)
let check_cursors ctx ~cond_stages =
  let vars =
    Hashtbl.fold
      (fun x stages acc -> match stages with _ :: _ :: _ -> x :: acc | _ -> acc)
      ctx.def_stages []
    |> List.sort compare
  in
  List.iter
    (fun x ->
      let ks = nonrep_defs ctx x in
      match cursor_stages ctx ks with
      | None -> ()
      | Some (t, u) ->
        let loops =
          List.concat_map
            (fun k -> if ctx.stage_of.(k) = u then Hashtbl.find ctx.parent_loops k else [])
            ks
        in
        K.iter_list
          (fun node ->
            let k = K.key node in
            let inside =
              List.exists (fun l -> List.mem l loops) (Hashtbl.find ctx.parent_loops k)
              || match node with K.Kwhile _ -> List.mem k loops | _ -> false
            in
            if inside then
              let readers =
                match node with
                | K.Kstmt (_, stmt) ->
                  if List.mem x (K.stmt_uses stmt) then [ ctx.stage_of.(k) ] else []
                | K.Kif _ | K.Kwhile _ | K.Kfor _ ->
                  if List.mem x (node_cond_vars node) then cond_stages k else []
              in
              match List.find_opt (fun s -> s <> u) readers with
              | Some s ->
                Pass.reject
                  "cursor %s from stage %d is advanced only by stage %d but read by \
                   stage %d inside that loop"
                  x t u s
              | None -> ())
          ctx.tree)
    vars

(* The def keys that feed x's communication channel (the producer stage's). *)
let channel_defs ctx x =
  match def_stage_of ctx x with
  | None -> []
  | Some t -> List.filter (fun k -> ctx.stage_of.(k) = t) (nonrep_defs ctx x)

(* Is x available locally in [stage] without communication? *)
let local ctx ~stage:s x =
  List.mem x ctx.params || Hashtbl.mem ctx.replicated x
  || Hashtbl.mem ctx.induction_of x
  || (match def_stage_of ctx x with Some t -> t = s | None -> true)
