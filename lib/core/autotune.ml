(* Analysis-guided autotuning over the full pipeline design space: the
   one design-space search loop.

   A configuration is a point in cut sets x per-queue capacities x stage
   replication x scan-chaining x core count (the SMT mapping follows the
   core count: threads are packed [Config.smt_threads] per core). The
   search is a beam-limited wave expansion: wave 0 seeds the frontier
   with the serial configuration plus every PGO cut set. Run alone (a
   budget of exactly the seed count), wave 0 *is* the paper's
   profile-guided search (Sec. V, Fig. 8); otherwise it guarantees the
   tuned result never loses to cut-set-only PGO. Each later wave simulates
   the frontier in parallel over the pool, reads each candidate's
   bottleneck report, and expands the wave's best survivors with moves
   *directed* by the diagnosis — deepen the backpressured queue,
   replicate past it, drop the cut starving a consumer, chain away DRAM
   traffic, add cores for an issue-bound stage. Visited configurations
   are deduplicated by a canonical digest; a budget caps total
   simulations; the best-so-far is anytime.

   Per-candidate cost is one timing replay: compiled programs and
   functional traces are memoized by pipeline digest inside Sim, and the
   queue-capacity knob is an engine-side override precisely so it does
   not perturb those keys. Moves that change the pipeline itself (cuts,
   chaining, replication) recompile, but identical pipelines reached
   along different paths still share the caches. *)

open Phloem_ir.Types
module Log = Phloem_util.Log
module Json = Phloem_util.Json
module Key = Phloem_util.Key

type config = {
  at_cuts : Costmodel.cut list; (* program order *)
  at_queue_caps : (int * int) list; (* (queue id, capacity), sorted *)
  at_chain : bool; (* scan-chain pass enabled *)
  at_replicas : int; (* 1 = no replication *)
  at_cores : int;
}

type space = {
  sp_cut_pool : Costmodel.cut list; (* the top-k ranked cuts *)
  sp_max_queue_cap : int;
  sp_max_replicas : int;
  sp_max_cores : int;
  sp_headroom_threshold : float;
}

type move =
  | M_seed
  | M_deepen of int * int (* queue id, new capacity *)
  | M_add_cut of int (* cut identified by its first load id *)
  | M_drop_cut of int
  | M_toggle_chain
  | M_replicate of int (* new replica count *)
  | M_cores of int (* new core count *)

type status =
  | Run_ok of {
      ok_cycles : int list; (* per training input *)
      ok_speedups : float list;
      ok_gmean : float;
      ok_verdict : string;
      ok_headroom : float;
      ok_diagnosis : string list;
      ok_stages : int; (* threads + RAs, as Fig. 13 counts them *)
    }
  | Run_rejected of string (* illegal cuts, bad result, no fit *)
  | Run_failed of string (* deadlock / livelock / op budget / runtime error *)

type attempt = {
  t_id : int;
  t_parent : int; (* attempt id this move came from; -1 for seeds *)
  t_move : move;
  t_config : config;
  t_digest : string;
  t_status : status;
  t_moves : move list; (* directed moves generated from this attempt *)
}

type outcome = {
  o_best : config;
  o_best_cycles : int list;
  o_best_gmean : float;
  o_serial_cycles : int list;
  o_cut_only : (config * int list * float) option;
      (* best default-knob non-serial candidate: what cut-set-only PGO
         would have picked *)
  o_simulated : int;
  o_deduped : int; (* move targets skipped as already visited *)
  o_rejected : int;
  o_waves : int;
  o_exhaustive : float; (* lower bound on the full space size *)
  o_trace : attempt list; (* in evaluation order *)
}

let cut_id (c : Costmodel.cut) = List.hd c.Costmodel.cut_loads

let move_to_string = function
  | M_seed -> "seed"
  | M_deepen (q, cap) -> Printf.sprintf "deepen(q%d->%d)" q cap
  | M_add_cut c -> Printf.sprintf "add-cut(%d)" c
  | M_drop_cut c -> Printf.sprintf "drop-cut(%d)" c
  | M_toggle_chain -> "toggle-chain"
  | M_replicate r -> Printf.sprintf "replicate(%d)" r
  | M_cores n -> Printf.sprintf "cores(%d)" n

(* Canonical digest of a cut set, insensitive to list order (subsets are
   always re-sorted to program order anyway) and to the float score, which
   is a ranking artifact rather than part of the cut's identity. Two cut
   sets collide exactly when they decouple identically. *)
let cut_set_key (cuts : Costmodel.cut list) : string =
  let canon =
    cuts
    |> List.map (fun (c : Costmodel.cut) ->
           Printf.sprintf "[%s]%b"
             (String.concat "," (List.map string_of_int c.cut_loads))
             c.cut_prefetch)
    |> List.sort compare
    |> String.concat ";"
  in
  Key.of_string canon

(* Canonical content key of a configuration, same scheme. Two configs
   collide exactly when they would simulate identically. *)
let config_digest (c : config) : string =
  let caps =
    List.sort compare c.at_queue_caps
    |> List.map (fun (q, cap) -> Printf.sprintf "%d:%d" q cap)
    |> String.concat ","
  in
  let canon =
    Printf.sprintf "cuts=%s;caps=%s;chain=%b;replicas=%d;cores=%d"
      (cut_set_key c.at_cuts)
      caps c.at_chain c.at_replicas c.at_cores
  in
  Key.of_string canon

(* All non-empty subsets of the top-k cuts with at most [max_cuts] members,
   each subset ordered by program position. The cost model can rank the
   same decoupling point more than once (e.g. with and without an equal
   neighbor), so subsets are deduplicated by canonical digest — profiling
   the same pipeline twice would only waste training runs. *)
let enumerate_cut_sets ?(top_k = 6) ?(max_cuts = 3) (serial : pipeline) :
    Costmodel.cut list list =
  let cuts = Compile.candidates serial in
  let top = List.filteri (fun i _ -> i < top_k) cuts in
  let rec subsets = function
    | [] -> [ [] ]
    | c :: rest ->
      let without = subsets rest in
      List.map (fun s -> c :: s) without @ without
  in
  let seen = Hashtbl.create 64 in
  subsets top
  |> List.filter (fun s -> s <> [] && List.length s <= max_cuts)
  |> List.map (List.sort (fun a b -> compare (cut_id a) (cut_id b)))
  |> List.filter (fun s ->
         let k = cut_set_key s in
         if Hashtbl.mem seen k then false
         else begin
           Hashtbl.add seen k ();
           true
         end)

(* ---------- directed move generation ---------- *)

let set_cap q cap l = List.sort compare ((q, cap) :: List.remove_assoc q l)

(* The move grammar, one branch per verdict. Every move that changes the
   pipeline's shape (cuts, chaining, replication) resets the per-queue
   capacity overrides: queue ids are assigned during decoupling, so they
   do not survive a reshape. *)
let moves (sp : space) (c : config) (r : Pipette.Analysis.report) :
    (move * config) list =
  let verdict =
    Pipette.Analysis.classify ~headroom_threshold:sp.sp_headroom_threshold r
  in
  let used = List.map cut_id c.at_cuts in
  let unused =
    List.filter (fun cut -> not (List.mem (cut_id cut) used)) sp.sp_cut_pool
  in
  let sort_cuts =
    List.sort (fun (a : Costmodel.cut) b -> compare (cut_id a) (cut_id b))
  in
  let add_cut cut =
    ( M_add_cut (cut_id cut),
      { c with at_cuts = sort_cuts (cut :: c.at_cuts); at_queue_caps = [] } )
  in
  let drop_cut cut =
    ( M_drop_cut (cut_id cut),
      {
        c with
        at_cuts = List.filter (fun x -> cut_id x <> cut_id cut) c.at_cuts;
        at_queue_caps = [];
      } )
  in
  let toggle_chain =
    if c.at_cuts = [] then []
    else [ (M_toggle_chain, { c with at_chain = not c.at_chain; at_queue_caps = [] }) ]
  in
  let replicate =
    if c.at_replicas < sp.sp_max_replicas && c.at_cuts <> [] then
      [
        ( M_replicate (c.at_replicas + 1),
          { c with at_replicas = c.at_replicas + 1; at_queue_caps = [] } );
      ]
    else []
  in
  let more_cores =
    if c.at_cores * 2 <= sp.sp_max_cores then
      [ (M_cores (c.at_cores * 2), { c with at_cores = c.at_cores * 2 }) ]
    else []
  in
  let deepen q =
    let cur =
      match List.assoc_opt q c.at_queue_caps with
      | Some cap -> cap
      | None -> (
        match
          Array.to_list r.Pipette.Analysis.r_queues
          |> List.find_opt (fun qr -> qr.Pipette.Analysis.q_id = q)
        with
        | Some qr -> qr.Pipette.Analysis.q_capacity
        | None -> 0)
    in
    let cap = min sp.sp_max_queue_cap (cur * 2) in
    if cur > 0 && cap > cur then
      [ (M_deepen (q, cap), { c with at_queue_caps = set_cap q cap c.at_queue_caps }) ]
    else []
  in
  match verdict with
  | Pipette.Analysis.Balanced -> []
  | Pipette.Analysis.Queue_bound { qb_queue; qb_direction = Backpressure } ->
    (* producers blocked on a full queue: give it room, or give its
       consumer a sibling, or restructure *)
    deepen qb_queue @ replicate @ List.map add_cut unused @ toggle_chain
  | Pipette.Analysis.Queue_bound { qb_direction = Starvation; _ } ->
    (* consumers idle on an empty queue: the upstream stage is too slow —
       shrink it by pulling work out (another cut), merge it away (drop a
       cut), or speed the whole pipeline up *)
    List.map drop_cut c.at_cuts @ List.map add_cut unused @ more_cores
    @ toggle_chain
  | Pipette.Analysis.Backend_bound { bb_level; _ } ->
    (* memory-bound stage: chaining offloads the access stream to RAs
       (most valuable when misses resolve at L3/DRAM), more stages overlap
       more misses *)
    (if bb_level >= 3 && not c.at_chain then toggle_chain else [])
    @ List.map add_cut unused @ replicate @ more_cores
  | Pipette.Analysis.Compute_bound _ ->
    (* issue-limited stage: split it or give it hardware *)
    List.map add_cut unused @ more_cores @ replicate

(* ---------- evaluation ---------- *)

type eval_ctx = {
  e_training :
    (pipeline * (string * value array) list * Phloem_ir.Interp.result) list;
      (* per training input: its serial pipeline (serial pipelines bake in
         input sizes, so every input compiles its own candidate), bindings,
         and the serial functional result *)
  e_serial_cycles : int list;
  e_cfg : Pipette.Config.t;
  e_check : string list;
  e_flags : Decouple.flags;
}

let pipeline_of (ctx : eval_ctx) (serial : pipeline) (c : config) : pipeline =
  let p =
    if c.at_cuts = [] then serial
    else
      Compile.with_cuts
        ~flags:{ ctx.e_flags with Decouple.f_chain = c.at_chain }
        serial c.at_cuts
  in
  if c.at_replicas > 1 then
    Replicate.apply p
      {
        Replicate.r_replicas = c.at_replicas;
        r_private_arrays = [];
        r_private_params = [];
        r_distribute = None;
      }
  else p

(* Simulate one configuration on every training input. Returns the status
   plus the first input's bottleneck report (the move generator's food).
   The ways a candidate is expected to die — illegal cuts, validation, a
   wrong result, the op budget, a runtime error, deadlock — land in the
   status, so evaluation never aborts a wave; any other exception is a bug
   and propagates. *)
let eval (ctx : eval_ctx) (c : config) : status * Pipette.Analysis.report option
    =
  match
    List.map
      (fun (serial, inputs, serial_fr) ->
        (pipeline_of ctx serial c, inputs, serial_fr))
      ctx.e_training
  with
  | exception Decouple.Reject msg -> (Run_rejected ("decouple: " ^ msg), None)
  | exception Phloem_ir.Validate.Invalid msg ->
    (Run_rejected ("validate: " ^ msg), None)
  | candidates -> (
    (* the thread-fit check, the stage count and the report come from the
       first input's candidate *)
    let p0, _, _ = List.hd candidates in
    let n_threads = List.length p0.p_stages in
    let cfg = Pipette.Config.with_cores ctx.e_cfg c.at_cores in
    if n_threads > cfg.Pipette.Config.n_cores * cfg.Pipette.Config.smt_threads
    then
      ( Run_rejected
          (Printf.sprintf "%d threads do not fit %d core(s) x %d SMT" n_threads
             cfg.Pipette.Config.n_cores cfg.Pipette.Config.smt_threads),
        None )
    else
      let run_one (p, inputs, (serial_fr : Phloem_ir.Interp.result)) =
        (* a backstop: illegal cut sets are rejected at compile time, but a
           candidate that still runs away (e.g. an inconsistent control-value
           protocol that spins forever) is killed at a multiple of the
           serial instruction count *)
        let budget = max 2_000_000 (8 * serial_fr.Phloem_ir.Interp.r_instrs) in
        let fr =
          Phloem_ir.Interp.with_max_ops budget (fun () ->
              Pipette.Sim.functional ~inputs p)
        in
        let ok =
          List.for_all
            (fun name ->
              List.assoc_opt name fr.Phloem_ir.Interp.r_arrays
              = List.assoc_opt name serial_fr.Phloem_ir.Interp.r_arrays)
            ctx.e_check
        in
        if not ok then Error "result differs from serial"
        else
          let r = Pipette.Sim.simulate ~cfg ~queue_caps:c.at_queue_caps p fr in
          Ok r
      in
      match List.map run_one candidates with
      | exception Phloem_ir.Forensics.Pipeline_failure f ->
        ( Run_failed
            (Phloem_ir.Forensics.kind_name f.Phloem_ir.Forensics.fr_kind),
          None )
      | exception
          ((Phloem_ir.Interp.Budget_exceeded | Phloem_ir.Interp.Runtime_error _)
           as e) ->
        (Run_failed (Printexc.to_string e), None)
      | results -> (
        match
          List.find_map (function Error m -> Some m | Ok _ -> None) results
        with
        | Some m -> (Run_rejected m, None)
        | None ->
          let runs =
            List.filter_map (function Ok r -> Some r | Error _ -> None) results
          in
          let cycles = List.map Pipette.Sim.cycles runs in
          let speedups =
            List.map2
              (fun s c -> float_of_int s /. float_of_int c)
              ctx.e_serial_cycles cycles
          in
          let report =
            Pipette.Sim.analyze
              ~stage_names:(Pipette.Sim.stage_names p0)
              (List.hd runs)
          in
          ( Run_ok
              {
                ok_cycles = cycles;
                ok_speedups = speedups;
                ok_gmean = Phloem_util.Stats.gmean speedups;
                ok_verdict =
                  Pipette.Analysis.verdict_to_string
                    (Pipette.Analysis.classify report);
                ok_headroom = report.Pipette.Analysis.r_headroom;
                ok_diagnosis = report.Pipette.Analysis.r_diagnosis;
                ok_stages = n_threads + List.length p0.p_ras;
              },
            Some report )))

(* ---------- the search loop ---------- *)

(* Lower bound on the exhaustive size of the space the tuner searches:
   for every enumerated cut set, each of its queues (>= one per cut)
   ranges over the capacity doublings, chaining is on or off, replication
   and core count each range over their choices. Reported so the outcome
   can prove the tuner simulated a strict subset. *)
let exhaustive_size ~(cut_sets : Costmodel.cut list list)
    ~(cfg : Pipette.Config.t) (sp : space) : float =
  let doublings base limit =
    let n = ref 1 in
    let v = ref base in
    while !v * 2 <= limit do
      v := !v * 2;
      incr n
    done;
    !n
  in
  let cap_choices = doublings cfg.Pipette.Config.queue_depth sp.sp_max_queue_cap in
  let core_choices = doublings cfg.Pipette.Config.n_cores sp.sp_max_cores in
  List.fold_left
    (fun acc cuts ->
      acc
      +. (float_of_int cap_choices ** float_of_int (List.length cuts))
         *. 2.0 (* chain on/off *)
         *. float_of_int sp.sp_max_replicas
         *. float_of_int core_choices)
    1.0 (* the serial configuration *)
    cut_sets

let take n l = List.filteri (fun i _ -> i < n) l

let tune ?(flags = Decouple.all_passes) ?(cfg = Pipette.Config.default)
    ?(top_k = 6) ?(max_cuts = 3) ?(beam = 4) ?(budget = 64) ?max_queue_cap
    ?(max_replicas = 2) ?(max_cores = 4) ?(headroom_threshold = 1.05) ?pool
    ?metrics ~check_arrays
    ~(training : (pipeline * (string * value array) list) list) () : outcome =
  if training = [] then invalid_arg "Autotune.tune: no training inputs";
  if beam < 1 then invalid_arg "Autotune.tune: beam < 1";
  if budget < 1 then invalid_arg "Autotune.tune: budget < 1";
  let pmap f l =
    match pool with
    | Some p -> Phloem_util.Pool.map_list p f l
    | None -> List.map f l
  in
  (* Progress instruments feeding the shared service registry (phloemd's
     or the CLI's): per-eval latency lands in a histogram from whichever
     pool domain ran it; wave/dedup/reject counters track search progress. *)
  let module M = Phloem_util.Metrics in
  let obs_eval =
    match metrics with
    | None -> fun f -> f ()
    | Some m ->
      let evals = M.counter m "autotune_evals" in
      let eval_s = M.histogram m "autotune_eval_s" in
      fun f ->
        let t0 = Unix.gettimeofday () in
        Fun.protect
          ~finally:(fun () ->
            M.incr evals;
            M.observe eval_s (Unix.gettimeofday () -. t0))
          f
  in
  let obs_counter name by =
    match metrics with
    | None -> ()
    | Some m -> if by > 0 then M.incr ~by (M.counter m name)
  in
  let obs_gauge name v =
    match metrics with None -> () | Some m -> M.set (M.gauge m name) v
  in
  let serial0 = fst (List.hd training) in
  let cut_sets = enumerate_cut_sets ~top_k ~max_cuts serial0 in
  let sp =
    {
      sp_cut_pool =
        take top_k (Compile.candidates serial0);
      sp_max_queue_cap =
        (match max_queue_cap with
        | Some m -> m
        | None -> 8 * cfg.Pipette.Config.queue_depth);
      sp_max_replicas = max_replicas;
      sp_max_cores = max_cores;
      sp_headroom_threshold = headroom_threshold;
    }
  in
  (* serial baselines: one functional run per training input *)
  let serial_runs =
    pmap
      (fun (serial, inputs) ->
        let r = Pipette.Sim.run ~cfg ~inputs serial in
        (serial, inputs, r))
      training
  in
  let ctx =
    {
      e_training =
        List.map
          (fun (s, i, r) -> (s, i, r.Pipette.Sim.sr_functional))
          serial_runs;
      e_serial_cycles =
        List.map (fun (_, _, r) -> Pipette.Sim.cycles r) serial_runs;
      e_cfg = cfg;
      e_check = check_arrays;
      e_flags = flags;
    }
  in
  let seed_config cuts =
    {
      at_cuts = cuts;
      at_queue_caps = [];
      at_chain = flags.Decouple.f_chain;
      at_replicas = 1;
      at_cores = cfg.Pipette.Config.n_cores;
    }
  in
  let seeds =
    List.map (fun cuts -> (M_seed, -1, seed_config cuts)) ([] :: cut_sets)
  in
  let visited = Hashtbl.create 256 in
  let deduped = ref 0 in
  let enqueue candidates =
    (* dedup against everything ever enqueued; first occurrence wins *)
    List.filter_map
      (fun (mv, parent, c) ->
        let d = config_digest c in
        if Hashtbl.mem visited d then begin
          incr deduped;
          None
        end
        else begin
          Hashtbl.add visited d ();
          Some (mv, parent, c, d)
        end)
      candidates
  in
  let frontier = ref (enqueue seeds) in
  let attempts = ref [] (* reverse evaluation order *) in
  let next_id = ref 0 in
  let simulated = ref 0 in
  let rejected = ref 0 in
  let waves = ref 0 in
  Log.info ~component:"autotune"
    "seeding frontier with %d configs (serial + %d cut sets); beam %d, \
     budget %d"
    (List.length !frontier) (List.length cut_sets) beam budget;
  while !frontier <> [] && !simulated < budget do
    incr waves;
    obs_counter "autotune_waves" 1;
    let wave = take (budget - !simulated) !frontier in
    frontier := [];
    let results =
      pmap
        (fun (mv, parent, c, d) ->
          (mv, parent, c, d, obs_eval (fun () -> eval ctx c)))
        wave
    in
    simulated := !simulated + List.length wave;
    let wave_attempts =
      List.map
        (fun (mv, parent, c, d, (status, report)) ->
          let id = !next_id in
          incr next_id;
          (match status with
          | Run_ok ok ->
            Log.debug ~component:"autotune" "#%d %s: gmean %.3f (%s)" id
              (move_to_string mv) ok.ok_gmean ok.ok_verdict
          | Run_rejected m | Run_failed m ->
            incr rejected;
            Log.debug ~component:"autotune" "#%d %s: dropped (%s)" id
              (move_to_string mv) m);
          ( {
              t_id = id;
              t_parent = parent;
              t_move = mv;
              t_config = c;
              t_digest = d;
              t_status = status;
              t_moves = [];
            },
            report ))
        results
    in
    (* beam: the wave's best survivors, by gmean then digest, expand *)
    let ok_gmean a =
      match a.t_status with Run_ok ok -> ok.ok_gmean | _ -> neg_infinity
    in
    let expanders =
      wave_attempts
      |> List.filter (fun (a, r) -> ok_gmean a > neg_infinity && r <> None)
      |> List.sort (fun (a, _) (b, _) ->
             match compare (ok_gmean b) (ok_gmean a) with
             | 0 -> compare a.t_digest b.t_digest
             | c -> c)
      |> take beam
    in
    let expanded =
      List.map
        (fun (a, report) ->
          let ms =
            match report with Some r -> moves sp a.t_config r | None -> []
          in
          (a.t_id, ms))
        expanders
    in
    (* attach generated moves to their attempts, in evaluation order *)
    let with_moves =
      List.map
        (fun (a, _) ->
          match List.assoc_opt a.t_id expanded with
          | Some ms -> { a with t_moves = List.map fst ms }
          | None -> a)
        wave_attempts
    in
    attempts := List.rev_append with_moves !attempts;
    frontier :=
      enqueue
        (List.concat_map
           (fun (parent_id, ms) ->
             List.map (fun (mv, c) -> (mv, parent_id, c)) ms)
           expanded)
  done;
  let trace = List.rev !attempts in
  let ok_attempts =
    List.filter_map
      (fun a ->
        match a.t_status with
        | Run_ok { ok_cycles; ok_gmean; _ } -> Some (a, ok_cycles, ok_gmean)
        | _ -> None)
      trace
  in
  let best_of l =
    match l with
    | [] -> None
    | first :: rest ->
      Some
        (List.fold_left
           (fun ((_, _, bg) as acc) ((_, _, g) as cand) ->
             if g > bg then cand else acc)
           first rest)
  in
  let serial_cfg = seed_config [] in
  let best_cfg, best_cycles, best_gmean =
    match best_of ok_attempts with
    | Some (a, cycles, g) -> (a.t_config, cycles, g)
    | None ->
      (* nothing survived, not even serial (should not happen): report the
         serial baseline itself *)
      (serial_cfg, ctx.e_serial_cycles, 1.0)
  in
  let cut_only =
    (* what cut-set-only PGO sees: default knobs, at least one cut *)
    ok_attempts
    |> List.filter (fun (a, _, _) ->
           a.t_config.at_cuts <> []
           && a.t_config.at_queue_caps = []
           && a.t_config.at_chain = serial_cfg.at_chain
           && a.t_config.at_replicas = 1
           && a.t_config.at_cores = serial_cfg.at_cores)
    |> best_of
    |> Option.map (fun (a, cycles, g) -> (a.t_config, cycles, g))
  in
  Log.info ~component:"autotune"
    "simulated %d of >= %.0f configs in %d wave(s): best gmean %.3f \
     (cut-only PGO best %s)"
    !simulated
    (exhaustive_size ~cut_sets ~cfg sp)
    !waves best_gmean
    (match cut_only with
    | Some (_, _, g) -> Printf.sprintf "%.3f" g
    | None -> "n/a");
  obs_counter "autotune_rejected" !rejected;
  obs_counter "autotune_deduped" !deduped;
  obs_gauge "autotune_best_gmean" best_gmean;
  (match best_cycles with
  | c :: _ -> obs_gauge "autotune_best_cycles" (float_of_int c)
  | [] -> ());
  {
    o_best = best_cfg;
    o_best_cycles = best_cycles;
    o_best_gmean = best_gmean;
    o_serial_cycles = ctx.e_serial_cycles;
    o_cut_only = cut_only;
    o_simulated = !simulated;
    o_deduped = !deduped;
    o_rejected = !rejected;
    o_waves = !waves;
    o_exhaustive = exhaustive_size ~cut_sets ~cfg sp;
    o_trace = trace;
  }

(* ---------- reporting ---------- *)

let json_of_config (c : config) : Json.t =
  Json.Obj
    [
      ( "cuts",
        Json.List (List.map (fun cut -> Json.Int (cut_id cut)) c.at_cuts) );
      ( "queue_caps",
        Json.List
          (List.map
             (fun (q, cap) -> Json.List [ Json.Int q; Json.Int cap ])
             c.at_queue_caps) );
      ("chain", Json.Bool c.at_chain);
      ("replicas", Json.Int c.at_replicas);
      ("cores", Json.Int c.at_cores);
    ]

let json_of_attempt (a : attempt) : Json.t =
  let status_fields =
    match a.t_status with
    | Run_ok ok ->
      [
        ("status", Json.Str "ok");
        ("cycles", Json.List (List.map (fun c -> Json.Int c) ok.ok_cycles));
        ( "speedups",
          Json.List (List.map (fun s -> Json.Float s) ok.ok_speedups) );
        ("gmean_speedup", Json.Float ok.ok_gmean);
        ("verdict", Json.Str ok.ok_verdict);
        ("headroom", Json.Float ok.ok_headroom);
        ("diagnosis", Json.List (List.map (fun d -> Json.Str d) ok.ok_diagnosis));
      ]
    | Run_rejected m -> [ ("status", Json.Str "rejected"); ("reason", Json.Str m) ]
    | Run_failed m -> [ ("status", Json.Str "failed"); ("reason", Json.Str m) ]
  in
  Json.Obj
    ([
       ("id", Json.Int a.t_id);
       ("parent", Json.Int a.t_parent);
       ("move", Json.Str (move_to_string a.t_move));
       ("config", json_of_config a.t_config);
       ("digest", Json.Str a.t_digest);
     ]
    @ status_fields
    @ [
        ( "moves",
          Json.List (List.map (fun m -> Json.Str (move_to_string m)) a.t_moves)
        );
      ])

let json_of_outcome (o : outcome) : Json.t =
  Json.Obj
    [
      ("best_config", json_of_config o.o_best);
      ("best_digest", Json.Str (config_digest o.o_best));
      ("best_cycles", Json.List (List.map (fun c -> Json.Int c) o.o_best_cycles));
      ("best_gmean_speedup", Json.Float o.o_best_gmean);
      ( "serial_cycles",
        Json.List (List.map (fun c -> Json.Int c) o.o_serial_cycles) );
      ( "cut_only_best",
        match o.o_cut_only with
        | None -> Json.Null
        | Some (c, cycles, gmean) ->
          Json.Obj
            [
              ("config", json_of_config c);
              ("cycles", Json.List (List.map (fun x -> Json.Int x) cycles));
              ("gmean_speedup", Json.Float gmean);
            ] );
      ("simulated", Json.Int o.o_simulated);
      ("deduped", Json.Int o.o_deduped);
      ("rejected", Json.Int o.o_rejected);
      ("waves", Json.Int o.o_waves);
      ("exhaustive_lower_bound", Json.Float o.o_exhaustive);
      ("trace", Json.List (List.map json_of_attempt o.o_trace));
    ]

let config_to_string (c : config) : string =
  Printf.sprintf "cuts [%s]%s chain=%b replicas=%d cores=%d"
    (String.concat ";" (List.map (fun cut -> string_of_int (cut_id cut)) c.at_cuts))
    (match c.at_queue_caps with
    | [] -> ""
    | caps ->
      " caps {"
      ^ String.concat ", "
          (List.map (fun (q, cap) -> Printf.sprintf "q%d:%d" q cap) caps)
      ^ "}")
    c.at_chain c.at_replicas c.at_cores

let summary (o : outcome) : string =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "Autotune: best gmean speedup %.3fx with %s\n" o.o_best_gmean
    (config_to_string o.o_best);
  (match o.o_cut_only with
  | Some (c, _, g) ->
    Printf.bprintf buf "  cut-set-only (PGO) best: %.3fx with %s\n" g
      (config_to_string c)
  | None -> Buffer.add_string buf "  cut-set-only (PGO) best: none survived\n");
  Printf.bprintf buf
    "  simulated %d config(s) in %d wave(s) (%d deduped, %d dropped) of a \
     space >= %.0f\n"
    o.o_simulated o.o_waves o.o_deduped o.o_rejected o.o_exhaustive;
  let shown = take 10 (List.rev o.o_trace) in
  if shown <> [] then begin
    Buffer.add_string buf "  last attempts:\n";
    List.iter
      (fun a ->
        Printf.bprintf buf "    #%d %s <- #%d: %s\n" a.t_id
          (move_to_string a.t_move) a.t_parent
          (match a.t_status with
          | Run_ok ok -> Printf.sprintf "gmean %.3f, %s" ok.ok_gmean ok.ok_verdict
          | Run_rejected m -> "rejected: " ^ m
          | Run_failed m -> "failed: " ^ m))
      (List.rev shown)
  end;
  Buffer.contents buf
