(* Communication planning for the decouple pass (phase C, first half).

   Computes which variables each stage consumes and which control nodes each
   stage needs (a fixpoint over control-expression uses and def-position
   contexts), decides rematerialization (recompute gate), places barriers
   between sibling loop nests with cross-stage array dependences, and, after
   the CV/DCE decisions (see Cvdce), builds the communication channels,
   assigns reference accelerators, and plans control-value emission. *)

open Phloem_ir.Types
module K = Ktree
module Ctx = Stage_assign

(* A communication channel: one or more variables (a merged cut group)
   flowing from a producer stage through a forward chain and/or backward
   edges. *)
type channel = {
  ch_vars : var list;
  ch_def_stage : int;
  ch_def_keys : int list; (* def keys, program order *)
  mutable ch_chain : (int * int) list; (* (stage, queue into that stage), forward *)
  mutable ch_back : (int * int) list; (* (stage, queue), feedback *)
  mutable ch_ra : int option; (* RA id when the producing loads are offloaded *)
  mutable ch_ra_in : int; (* RA input queue (valid when ch_ra set) *)
}

type use_origin = Ostmt | Obound of int (* loop key *) | Ocond of int (* if key *)

type decisions = {
  d_uses : (var, (int * use_origin) list ref) Hashtbl.t; (* var -> (stage, origin) *)
  d_needs : (int, int list ref) Hashtbl.t; (* control key -> stages *)
  d_recomputed : (int * var, unit) Hashtbl.t; (* (stage, var) *)
  d_converted : (int * int, var) Hashtbl.t; (* (stage, loop key) -> primary var *)
  d_exit_site : (int * int, int) Hashtbl.t; (* (stage, loop key) -> CV site *)
  d_merged : (int * int, unit) Hashtbl.t; (* (stage, ancestor loop key) emits nothing *)
  d_elided : (int * int, unit) Hashtbl.t; (* (stage, if key) *)
  d_barrier_before : (int, unit) Hashtbl.t; (* node keys preceded by a barrier *)
  mutable d_channels : channel list;
  d_var_channel : (var, channel) Hashtbl.t;
  (* (emitter stage, loop key) -> (queue, site) list: enq_ctrl after the loop *)
  d_cv_emits : (int * int, (int * int) list ref) Hashtbl.t;
  mutable d_next_queue : int;
  mutable d_next_ra : int;
  mutable d_ras : ra_config list;
}

let create () : decisions =
  {
    d_uses = Hashtbl.create 64;
    d_needs = Hashtbl.create 64;
    d_recomputed = Hashtbl.create 16;
    d_converted = Hashtbl.create 16;
    d_exit_site = Hashtbl.create 16;
    d_merged = Hashtbl.create 16;
    d_elided = Hashtbl.create 16;
    d_barrier_before = Hashtbl.create 4;
    d_channels = [];
    d_var_channel = Hashtbl.create 16;
    d_cv_emits = Hashtbl.create 8;
    d_next_queue = 0;
    d_next_ra = 0;
    d_ras = [];
  }

(* ---------- shared accessors over the decision state ---------- *)

let add_use d x s origin =
  let l =
    match Hashtbl.find_opt d.d_uses x with
    | Some l -> l
    | None ->
      let l = ref [] in
      Hashtbl.replace d.d_uses x l;
      l
  in
  if not (List.mem (s, origin) !l) then l := (s, origin) :: !l

let needs_of d k = match Hashtbl.find_opt d.d_needs k with Some l -> !l | None -> []

(* The stages that evaluate control node k's condition or bounds: those
   that need it, minus the ones that elide the If or run the For as a
   converted or merged loop (see Emit). *)
let cond_stages d k =
  List.filter
    (fun s ->
      not
        (Hashtbl.mem d.d_elided (s, k)
        || Hashtbl.mem d.d_converted (s, k)
        || Hashtbl.mem d.d_merged (s, k)))
    (needs_of d k)

(* Returns true when the need was new. *)
let add_need d k s =
  let l =
    match Hashtbl.find_opt d.d_needs k with
    | Some l -> l
    | None ->
      let l = ref [] in
      Hashtbl.replace d.d_needs k l;
      l
  in
  if not (List.mem s !l) then begin
    l := s :: !l;
    true
  end
  else false

(* Does stage s consume x through a queue (not local, not recomputed)? *)
let consumed_by ctx d s x =
  (not (Ctx.local ctx ~stage:s x))
  && (not (Hashtbl.mem d.d_recomputed (s, x)))
  &&
  match Hashtbl.find_opt d.d_uses x with
  | None -> false
  | Some uses -> List.exists (fun (s', _) -> s' = s) !uses

(* Is x still communicated to s given decisions so far? A use that is
   only the bound of an already-converted loop no longer counts. *)
let still_consumed ctx d s x =
  consumed_by ctx d s x
  &&
  match Hashtbl.find_opt d.d_uses x with
  | None -> false
  | Some uses ->
    List.exists
      (fun (s', o) ->
        s' = s
        &&
        match o with
        | Ostmt -> true
        | Obound l -> not (Hashtbl.mem d.d_converted (s, l))
        | Ocond i -> not (Hashtbl.mem d.d_elided (s, i)))
      !uses

(* Final consumer sets, with converted-loop bounds and elided-If conds
   dropped. *)
let final_consumers ctx d x =
  match Hashtbl.find_opt d.d_uses x with
  | None -> []
  | Some uses ->
    List.sort_uniq compare
      (List.filter_map
         (fun (s, origin) ->
           if s < 0 || Ctx.local ctx ~stage:s x || Hashtbl.mem d.d_recomputed (s, x)
           then None
           else
             match origin with
             | Obound l when Hashtbl.mem d.d_converted (s, l) ->
               (* still consumed if used elsewhere by s *)
               if
                 List.exists
                   (fun (s', o') ->
                     s' = s
                     && o' <> origin
                     &&
                     match o' with
                     | Obound l' -> not (Hashtbl.mem d.d_converted (s, l'))
                     | Ocond i' -> not (Hashtbl.mem d.d_elided (s, i'))
                     | Ostmt -> true)
                   !uses
               then Some s
               else None
             | Ocond i when Hashtbl.mem d.d_elided (s, i) ->
               if
                 List.exists
                   (fun (s', o') ->
                     s' = s
                     && o' <> origin
                     &&
                     match o' with
                     | Obound l' -> not (Hashtbl.mem d.d_converted (s, l'))
                     | Ocond i' -> not (Hashtbl.mem d.d_elided (s, i'))
                     | Ostmt -> true)
                   !uses
               then Some s
               else None
             | Obound l -> (
               (* needed for the For bound if s emits the For *)
               ignore l;
               Some s)
             | Ocond _ | Ostmt -> Some s)
         !uses)

(* ---------- uses/needs analysis (seed + fixpoint) ---------- *)

let analyze (ctx : Ctx.context) (d : decisions) =
  (* seed: simple stmt uses and needs *)
  K.iter_list
    (fun node ->
      match node with
      | K.Kstmt (k, stmt) ->
        let s =
          if Hashtbl.mem ctx.Ctx.replicated_keys k then -2 (* everywhere *)
          else ctx.Ctx.stage_of.(k)
        in
        if s >= 0 then begin
          List.iter (fun x -> add_use d x s Ostmt) (K.stmt_uses stmt);
          List.iter
            (fun a -> ignore (add_need d a s))
            (Hashtbl.find ctx.Ctx.ancestors k);
          match Hashtbl.find_opt ctx.Ctx.prefetch_from k with
          | Some p ->
            (* the producer prefetches: it needs the index and the loops *)
            List.iter (fun x -> add_use d x p Ostmt) (K.stmt_uses stmt);
            List.iter
              (fun a -> ignore (add_need d a p))
              (Hashtbl.find ctx.Ctx.ancestors k)
          | None -> ()
        end
      | K.Kif _ | K.Kwhile _ | K.Kfor _ -> ())
    ctx.Ctx.tree;
  (* fixpoint: control uses and def-position needs *)
  let changed = ref true in
  while !changed do
    changed := false;
    (* an If that can break a loop must replicate into every stage that has
       the loop, or their copies would never exit *)
    K.iter_list
      (fun node ->
        match node with
        | K.Kif (k, _, _, tb, fb) ->
          let rec directly_breaks ns =
            List.exists
              (function
                | K.Kstmt (_, (Break | Exit_loops _)) -> true
                | K.Kstmt _ | K.Kwhile _ | K.Kfor _ -> false
                | K.Kif (_, _, _, t, f) -> directly_breaks t || directly_breaks f)
              ns
          in
          if directly_breaks tb || directly_breaks fb then (
            match Hashtbl.find ctx.Ctx.parent_loops k with
            | l :: _ ->
              List.iter
                (fun s -> if add_need d k s then changed := true)
                (needs_of d l)
            | [] -> ())
        | K.Kstmt _ | K.Kwhile _ | K.Kfor _ -> ())
      ctx.Ctx.tree;
    (* register control-expression uses for needing stages *)
    K.iter_list
      (fun node ->
        match node with
        | K.Kstmt _ -> ()
        | K.Kif (k, _, _, _, _) ->
          List.iter
            (fun s ->
              List.iter (fun x -> add_use d x s (Ocond k)) (Ctx.node_cond_vars node))
            (needs_of d k)
        | K.Kwhile (k, _, _, _) ->
          List.iter
            (fun s ->
              List.iter (fun x -> add_use d x s (Ocond k)) (Ctx.node_cond_vars node))
            (needs_of d k)
        | K.Kfor (k, _, _, _, _, _) ->
          List.iter
            (fun s ->
              List.iter (fun x -> add_use d x s (Obound k)) (Ctx.node_cond_vars node))
            (needs_of d k))
      ctx.Ctx.tree;
    (* consumers need the control context of each def position *)
    Hashtbl.iter
      (fun x uses ->
        List.iter
          (fun (s, _) ->
            if s >= 0 && not (Ctx.local ctx ~stage:s x) then
              List.iter
                (fun dk ->
                  List.iter
                    (fun a -> if add_need d a s then changed := true)
                    (Hashtbl.find ctx.Ctx.ancestors dk))
                (Ctx.channel_defs ctx x))
          !uses)
      d.d_uses
  done

(* ---------- recompute (rematerialization) ---------- *)

let plan_recompute (ctx : Ctx.context) (d : decisions) =
  if ctx.Ctx.flags.Pass.f_recompute then begin
    (* a def is recomputable in stage s only when its full control context
       is available there: no enclosing If, and every enclosing loop is one
       the stage replicates *)
    let candidate ~stage:s x =
      Ctx.nonrep_defs ctx x <> []
      && List.for_all
           (fun k ->
             (match ctx.Ctx.key_node.(k) with
             | Some (K.Kstmt (_, Assign (_, rhs))) -> K.expr_is_pure rhs
             | _ -> false)
             && Hashtbl.find ctx.Ctx.parent_ifs k = []
             && List.for_all
                  (fun l -> List.mem s (needs_of d l))
                  (Hashtbl.find ctx.Ctx.parent_loops k))
           (Ctx.nonrep_defs ctx x)
    in
    let consumer_stages x =
      match Hashtbl.find_opt d.d_uses x with
      | None -> []
      | Some uses ->
        List.sort_uniq compare
          (List.filter_map
             (fun (s, _) ->
               if s >= 0 && not (Ctx.local ctx ~stage:s x) then Some s else None)
             !uses)
    in
    let all_vars = Hashtbl.fold (fun x _ acc -> x :: acc) d.d_uses [] in
    List.iter
      (fun x ->
        List.iter
          (fun s ->
            if candidate ~stage:s x then begin
              (* availability closure for stage s *)
              let rec avail ?(seen = []) y =
                if List.mem y seen then false
                else
                  Ctx.local ctx ~stage:s y
                  || Hashtbl.mem d.d_recomputed (s, y)
                  || (candidate ~stage:s y
                     && List.for_all
                          (fun k ->
                            match ctx.Ctx.key_node.(k) with
                            | Some (K.Kstmt (_, Assign (_, rhs))) ->
                              List.for_all
                                (fun z -> z = y || avail ~seen:(y :: seen) z)
                                (K.expr_uses [] rhs)
                            | _ -> false)
                          (Ctx.nonrep_defs ctx y))
              in
              if avail x then Hashtbl.replace d.d_recomputed (s, x) ()
            end)
          (consumer_stages x))
      all_vars
  end

(* ---------- barriers between sibling loop nests ---------- *)

let plan_barriers (ctx : Ctx.context) (d : decisions) =
  if ctx.Ctx.n_stages > 1 then begin
    let arrays_written nodes =
      let acc = ref [] in
      K.iter_list
        (function
          | K.Kstmt (k, (Store (a, _, _) | Atomic_min (a, _, _) | Atomic_add (a, _, _))) ->
            acc := (a, ctx.Ctx.stage_of.(k)) :: !acc
          | _ -> ())
        nodes;
      !acc
    in
    let arrays_read nodes =
      let acc = ref [] in
      K.iter_list
        (function
          | K.Kstmt (k, stmt) ->
            List.iter
              (fold_expr
                 (fun () e ->
                   match e with
                   | Load (a, _) -> acc := (a, ctx.Ctx.stage_of.(k)) :: !acc
                   | _ -> ())
                 ())
              (stmt_exprs stmt)
          | _ -> ())
        nodes;
      !acc
    in
    let rec scan_siblings nodes =
      let loops =
        List.filter (function K.Kfor _ | K.Kwhile _ -> true | _ -> false) nodes
      in
      let conflicts n1 n2 =
        (* a write in n1 touching an array n2 accesses from another stage *)
        let reads2 = arrays_read [ n2 ] @ arrays_written [ n2 ] in
        List.exists
          (fun (a, t) ->
            List.exists (fun (a2, s2) -> a2 = a && s2 <> t && s2 >= 0 && t >= 0) reads2)
          (arrays_written [ n1 ])
      in
      List.iteri
        (fun j n2 ->
          let earlier = List.filteri (fun i _ -> i < j) loops in
          if List.exists (fun n1 -> conflicts n1 n2) earlier then
            Hashtbl.replace d.d_barrier_before (K.key n2) ())
        loops;
      (* wrap-around: a later sibling's writes feeding an earlier sibling's
         reads in the next iteration of the enclosing loop *)
      (match loops with
      | first :: _ :: _ ->
        let later = List.tl loops in
        if List.exists (fun n1 -> conflicts n1 first) later then
          Hashtbl.replace d.d_barrier_before (K.key first) ()
      | _ -> ());
      List.iter
        (function
          | K.Kif (_, _, _, t, f) ->
            scan_siblings t;
            scan_siblings f
          | K.Kwhile (_, _, _, b) | K.Kfor (_, _, _, _, _, b) -> scan_siblings b
          | K.Kstmt _ -> ())
        nodes
    in
    scan_siblings ctx.Ctx.tree
  end

(* ---------- channels, RAs, CV emission (after Cvdce decisions) ---------- *)

let build_channels (ctx : Ctx.context) (d : decisions) (cuts : Costmodel.cut list) =
  let fresh_queue () =
    let q = d.d_next_queue in
    d.d_next_queue <- q + 1;
    q
  in
  (* group id for cut-group merging: var -> cut head ordinal *)
  let cut_group_of x =
    let dks = Ctx.channel_defs ctx x in
    match dks with
    | [ dk ] when Hashtbl.mem ctx.Ctx.cut_head_keys dk ->
      let o = ctx.Ctx.load_ord.(dk) in
      List.find_map
        (fun (c : Costmodel.cut) ->
          if (not c.Costmodel.cut_prefetch) && List.mem o c.Costmodel.cut_loads then
            Some (List.hd c.Costmodel.cut_loads)
          else None)
        cuts
    | _ -> None
  in
  let all_vars =
    List.sort_uniq compare (Hashtbl.fold (fun x _ acc -> x :: acc) d.d_uses [])
  in
  let communicated =
    List.filter_map
      (fun x ->
        match final_consumers ctx d x with
        | [] -> None
        | consumers -> (
          match Ctx.def_stage_of ctx x with
          | None -> None (* params/replicated only *)
          | Some t -> Some (x, t, consumers)))
      all_vars
  in
  (* merge by cut group when consumer sets coincide *)
  let grouped : (int option * int * int list, (var * int) list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (fun (x, t, consumers) ->
      let g = cut_group_of x in
      let key = (g, t, consumers) in
      let key = if g = None then (Some (-1 - Hashtbl.hash x), t, consumers) else key in
      let l =
        match Hashtbl.find_opt grouped key with
        | Some l -> l
        | None ->
          let l = ref [] in
          Hashtbl.replace grouped key l;
          l
      in
      let dk = List.hd (Ctx.channel_defs ctx x) in
      l := (x, dk) :: !l)
    communicated;
  Hashtbl.iter
    (fun (_, t, consumers) members ->
      let members = List.sort (fun (_, a) (_, b) -> compare a b) !members in
      let vars = List.map fst members in
      let def_keys = List.concat_map (fun (x, _) -> Ctx.channel_defs ctx x) members in
      let forward = List.filter (fun s -> s > t) consumers in
      let backward = List.filter (fun s -> s < t) consumers in
      let chain = List.map (fun s -> (s, fresh_queue ())) forward in
      let back = List.map (fun s -> (s, fresh_queue ())) backward in
      let ch =
        {
          ch_vars = vars;
          ch_def_stage = t;
          ch_def_keys = List.sort compare def_keys;
          ch_chain = chain;
          ch_back = back;
          ch_ra = None;
          ch_ra_in = -1;
        }
      in
      d.d_channels <- ch :: d.d_channels;
      List.iter (fun x -> Hashtbl.replace d.d_var_channel x ch) vars)
    grouped

let assign_ras (ctx : Ctx.context) (d : decisions) =
  if ctx.Ctx.flags.Pass.f_ra then
    List.iter
      (fun ch ->
        if d.d_next_ra < Pipette.Config.(default.max_ras) && ch.ch_back = [] && ch.ch_chain <> []
        then begin
          let arrays =
            List.filter_map
              (fun k ->
                match ctx.Ctx.key_node.(k) with
                | Some (K.Kstmt (_, Assign (_, Load (a, _))))
                  when Hashtbl.mem ctx.Ctx.cut_head_keys k ->
                  Some a
                | _ -> None)
              ch.ch_def_keys
          in
          let producer_uses_locally =
            List.exists
              (fun x ->
                match Hashtbl.find_opt d.d_uses x with
                | None -> false
                | Some uses -> List.exists (fun (s, _) -> s = ch.ch_def_stage) !uses)
              ch.ch_vars
          in
          if
            List.length arrays = List.length ch.ch_def_keys
            && arrays <> []
            && List.for_all (fun a -> a = List.hd arrays) arrays
            && not producer_uses_locally
          then begin
            let ra_id = d.d_next_ra in
            d.d_next_ra <- ra_id + 1;
            let q_in =
              let q = d.d_next_queue in
              d.d_next_queue <- q + 1;
              q
            in
            ch.ch_ra <- Some ra_id;
            ch.ch_ra_in <- q_in;
            d.d_ras <-
              {
                ra_id;
                ra_in = q_in;
                ra_out = snd (List.hd ch.ch_chain);
                ra_array = List.hd arrays;
                ra_mode = Ra_indirect;
              }
              :: d.d_ras
          end
        end)
      d.d_channels

(* CV emission plan: the hop feeding each converted consumer re-emits the
   control value after its own copy of the effective loop. *)
let plan_cv_emits (ctx : Ctx.context) (d : decisions) =
  Hashtbl.iter
    (fun (s, l) primary ->
      match Hashtbl.find_opt d.d_var_channel primary with
      | None -> ()
      | Some ch ->
        let site = Hashtbl.find d.d_exit_site (s, l) in
        (* effective loop key for emission position *)
        let rec effective cur =
          match Hashtbl.find ctx.Ctx.parent_loops cur with
          | p :: _ when Hashtbl.mem d.d_merged (s, p) -> effective p
          | _ -> cur
        in
        let eff = effective l in
        (* find the hop before s in ch's chain *)
        let rec hop_before prev = function
          | [] -> None
          | (s', q) :: rest -> if s' = s then Some (prev, q) else hop_before (Some s') rest
        in
        (match hop_before None ch.ch_chain with
        | Some (prev_stage, q_into_s) ->
          let emitter, target =
            match (prev_stage, ch.ch_ra) with
            | None, Some _ -> (ch.ch_def_stage, ch.ch_ra_in)
            | None, None -> (ch.ch_def_stage, q_into_s)
            | Some p, _ -> (p, q_into_s)
          in
          let key = (emitter, eff) in
          let l' =
            match Hashtbl.find_opt d.d_cv_emits key with
            | Some l -> l
            | None ->
              let l = ref [] in
              Hashtbl.replace d.d_cv_emits key l;
              l
          in
          if not (List.mem (target, site) !l') then l' := (target, site) :: !l'
        | None -> ()))
    d.d_converted

(* ---------- queue lookup helpers used by the emitter ---------- *)

let queue_into ch s =
  match List.assoc_opt s ch.ch_chain with
  | Some q -> Some q
  | None -> List.assoc_opt s ch.ch_back

let next_link ch s =
  let rec go = function
    | (s', _) :: ((_, q2) :: _ as rest) -> if s' = s then Some q2 else go rest
    | _ -> None
  in
  go ch.ch_chain
