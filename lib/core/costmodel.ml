(* Decoupling-point selection (paper Sec. V): rank memory accesses by
   predicted cost x frequency.

   - Cost depends on the access pattern: indirect accesses are expensive,
     scans by an induction variable are cheap, and an access adjacent to an
     earlier one on the same array (index differing by a constant) is almost
     free and is grouped with it so both land in the same stage.
   - Frequency is approximated by loop depth: an access in the innermost
     loop runs once per edge/nonzero, one loop out once per vertex/row.

   Cuts whose load would race with a later store to the same array in the
   same iteration are marked prefetch-only (paper Fig. 4): the producer
   prefetches, the consumer re-loads. *)

open Phloem_ir.Types

type access_kind = Sequential | Scan | Indirect

type load_site = {
  ls_ordinal : int; (* position among loads, program order *)
  ls_array : array_id;
  ls_depth : int;
  ls_kind : access_kind;
  ls_group_head : int; (* ordinal of the first load of its adjacency group *)
  ls_prefetch_only : bool;
  ls_score : float;
}

type cut = {
  cut_loads : int list; (* ordinals of the adjacency group, ascending *)
  cut_prefetch : bool;
  cut_score : float;
}

let depth_weight depth = (8.0 ** float_of_int depth)

let base_cost = function Indirect -> 4.0 | Scan -> 1.5 | Sequential -> 1.0

(* Does [body] (the rest of an iteration after the load) store to [arr]? *)
let stores_to arr (nodes : Ktree.t list) =
  let found = ref false in
  Ktree.iter_list
    (function
      | Ktree.Kstmt (_, (Store (a, _, _) | Atomic_min (a, _, _) | Atomic_add (a, _, _))) ->
        if a = arr then found := true
      | _ -> ())
    nodes;
  !found

(* Analyze a keyed tree; returns load sites in program order. *)
let analyze (tree : Ktree.t list) : load_site list =
  let sites = ref [] in
  let ordinal = ref 0 in
  (* last load on each array within the current straight-line region:
     (array -> ordinal, index base var). Reset on entering a loop body. *)
  let rec walk ~depth ~inductions ~defs ~region nodes =
    (* [defs]: var -> rhs expr, for detecting index = base + const
       [region]: (array -> (ordinal, index_expr)) assoc list ref *)
    List.iteri
      (fun i node ->
        let rest = List.filteri (fun j _ -> j > i) nodes in
        match node with
        | Ktree.Kstmt (_, stmt) -> (
          (match Ktree.stmt_def stmt with
          | Some x ->
            (match stmt with
            | Assign (_, rhs) -> Hashtbl.replace defs x rhs
            | _ -> ())
          | None -> ());
          match Ktree.stmt_load stmt with
          | None -> ()
          | Some (arr, idx) ->
            let o = !ordinal in
            incr ordinal;
            (* classify the index *)
            let rec base_of ?(fuel = 8) e =
              match e with
              | Var x when fuel > 0 -> (
                match Hashtbl.find_opt defs x with
                | Some (Binop (Add, Var y, Const _)) when y <> x ->
                  base_of ~fuel:(fuel - 1) (Var y)
                | Some (Binop (Add, Const _, Var y)) when y <> x ->
                  base_of ~fuel:(fuel - 1) (Var y)
                | _ -> Some x)
              | Var x -> Some x
              | Const _ -> None
              | _ -> None
            in
            let base_of e = base_of e in
            let kind =
              match idx with
              | Const _ -> Sequential
              | _ -> (
                match base_of idx with
                | Some x when List.mem x inductions -> Scan
                | Some _ -> Indirect
                | None -> Sequential)
            in
            (* adjacency grouping: same array, same index base *)
            let group_head =
              match List.assoc_opt arr !region with
              | Some (prev_ord, prev_idx)
                when base_of prev_idx <> None && base_of prev_idx = base_of idx ->
                prev_ord
              | _ -> o
            in
            region := (arr, (group_head, idx)) :: List.remove_assoc arr !region;
            let prefetch_only = stores_to arr rest in
            let score =
              if group_head <> o then 0.0 (* grouped with its head *)
              else base_cost kind *. depth_weight depth
            in
            {
              ls_ordinal = o;
              ls_array = arr;
              ls_depth = depth;
              ls_kind = kind;
              ls_group_head = group_head;
              ls_prefetch_only = prefetch_only;
              ls_score = score;
            }
            |> fun site -> sites := site :: !sites)
        | Ktree.Kif (_, _, _, t, f) ->
          walk ~depth ~inductions ~defs ~region t;
          walk ~depth ~inductions ~defs ~region f
        | Ktree.Kwhile (_, _, _, b) ->
          let region' = ref [] in
          walk ~depth:(depth + 1) ~inductions ~defs ~region:region' b
        | Ktree.Kfor (_, _, v, _, _, b) ->
          let region' = ref [] in
          walk ~depth:(depth + 1) ~inductions:(v :: inductions) ~defs ~region:region' b)
      nodes
  in
  walk ~depth:0 ~inductions:[] ~defs:(Hashtbl.create 32) ~region:(ref []) tree;
  List.rev !sites

(* Candidate cuts, best first. Each adjacency group yields one cut whose
   score is the head's score plus prefetch demotion (a prefetch-only cut is
   less profitable: the consumer still pays the load). *)
let candidates (tree : Ktree.t list) : cut list =
  let sites = analyze tree in
  let groups = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let head = s.ls_group_head in
      let cur = try Hashtbl.find groups head with Not_found -> [] in
      Hashtbl.replace groups head (s :: cur))
    sites;
  let cuts =
    Hashtbl.fold
      (fun _head members acc ->
        let members = List.sort (fun a b -> compare a.ls_ordinal b.ls_ordinal) members in
        let head = List.hd members in
        if head.ls_score <= 0.0 then acc
        else
          let prefetch = List.exists (fun m -> m.ls_prefetch_only) members in
          {
            cut_loads = List.map (fun m -> m.ls_ordinal) members;
            cut_prefetch = prefetch;
            cut_score = (head.ls_score *. if prefetch then 0.6 else 1.0);
          }
          :: acc)
      groups []
  in
  List.sort (fun a b -> compare b.cut_score a.cut_score) cuts
