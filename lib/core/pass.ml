(* Pass-manager infrastructure for the Phloem compiler.

   The compiler is a sequence of IR-to-IR transformations over [pipeline]
   (decouple -> scan-chain -> cleanup -> limit checks -> validation, plus
   replication for the multicore flow). Each transformation is a first-class
   pass: a name, a [run] function, and optional invariants checked after the
   pass when [verify_each] is on. The [Manager] runs a pass list,
   re-validating the IR between passes on request, recording per-pass wall
   time and op-count deltas, and dumping IR snapshots via
   [Phloem_ir.Printer]. *)

open Phloem_ir.Types
module Log = Phloem_util.Log
module Clock = Phloem_util.Clock

(* A transformation that cannot be applied legally (e.g. a cut that would
   split a merge loop's induction updates across stages) rejects the whole
   compilation; the static flow catches this and tries other cuts. *)
exception Reject of string

let reject fmt =
  Printf.ksprintf
    (fun s ->
      Log.debug ~component:"pass" "reject: %s" s;
      raise (Reject s))
    fmt

(* Feature gates of the decoupling transform (paper Fig. 6 ablation ladder).
   These are orthogonal to the pass list: they gate decisions
   *inside* the decouple pass and decide whether scan-chaining runs. *)
type flags = {
  f_recompute : bool;
  f_ra : bool;
  f_cv : bool;
  f_handlers : bool;
  f_dce : bool;
  f_chain : bool;
      (* scan-chaining as its own first-class knob: the autotuner toggles it
         per candidate config without disturbing the RA/DCE decisions made
         inside decouple (f_ra / f_dce stay the ablation-ladder gates) *)
}

let all_passes =
  {
    f_recompute = true;
    f_ra = true;
    f_cv = true;
    f_handlers = true;
    f_dce = true;
    f_chain = true;
  }

let queues_only =
  {
    f_recompute = false;
    f_ra = false;
    f_cv = false;
    f_handlers = false;
    f_dce = false;
    f_chain = false;
  }

(* Context shared by every pass of one compilation. *)
type ctx = {
  flags : flags;
  cuts : Costmodel.cut list; (* selected decoupling points, program order *)
}

module type PASS = sig
  val name : string
  val describe : string

  val run : ctx -> pipeline -> pipeline

  (* Checked after the pass when [verify_each] is on; raise [Reject] (or any
     exception) to flag a violated invariant. *)
  val invariants : (ctx -> pipeline -> unit) list
end

type pass = (module PASS)

let name_of (p : pass) =
  let module P = (val p) in
  P.name

let describe_of (p : pass) =
  let module P = (val p) in
  P.describe

(* ---------- op counting (for per-pass deltas) ---------- *)

let count_ops (p : pipeline) =
  let count n b = fold_stmts (fun n _ -> n + 1) n b in
  List.fold_left
    (fun n st -> List.fold_left (fun n h -> count n h.h_body) (count n st.s_body) st.s_handlers)
    0 p.p_stages

(* ---------- manager ---------- *)

(* Raised when [verify_each] catches a malformed pipeline or a violated pass
   invariant; names the pass that produced the bad IR. *)
exception Verify_failed of string * string

type options = {
  verify_each : bool; (* run Validate + pass invariants after every pass *)
  dump_ir : string option; (* write numbered IR snapshots into this directory *)
}

let default_options = { verify_each = false; dump_ir = None }

type pass_report = {
  pr_name : string;
  pr_wall_s : float;
  pr_ops_before : int;
  pr_ops_after : int;
  pr_stages_after : int;
}

type report = {
  rep_passes : pass_report list; (* in execution order *)
  rep_wall_s : float;
}

let report_to_string (r : report) =
  let line pr =
    Printf.sprintf "  %-14s %9.3f ms   %5d -> %5d ops   %d stages" pr.pr_name
      (pr.pr_wall_s *. 1000.0) pr.pr_ops_before pr.pr_ops_after pr.pr_stages_after
  in
  String.concat "\n"
    (("Pass timings:" :: List.map line r.rep_passes)
    @ [ Printf.sprintf "  %-14s %9.3f ms" "total" (r.rep_wall_s *. 1000.0) ])

module Manager = struct
  type t = {
    passes : pass list;
    options : options;
  }

  let create ?(options = default_options) (passes : pass list) = { passes; options }
  let names t = List.map name_of t.passes

  let dump_snapshot dir idx name p =
    (try Unix.mkdir dir 0o755 with
    | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    | Unix.Unix_error _ as e -> raise e);
    let file = Filename.concat dir (Printf.sprintf "%02d-%s.ir" idx name) in
    Out_channel.with_open_text file (fun oc ->
        output_string oc (Phloem_ir.Printer.pipeline_to_string p);
        output_char oc '\n')

  let verify_after (ctx : ctx) (module P : PASS) p =
    (match Phloem_ir.Validate.check p with
    | () -> ()
    | exception Phloem_ir.Validate.Invalid msg -> raise (Verify_failed (P.name, msg)));
    List.iter
      (fun inv ->
        match inv ctx p with
        | () -> ()
        | exception Reject msg -> raise (Verify_failed (P.name, msg))
        | exception Phloem_ir.Validate.Invalid msg ->
          raise (Verify_failed (P.name, msg)))
      P.invariants

  let run (t : t) (ctx : ctx) (p0 : pipeline) : pipeline * report =
    Option.iter (fun dir -> dump_snapshot dir 0 "input" p0) t.options.dump_ir;
    let t_start = Clock.now () in
    let reports = ref [] in
    let idx = ref 0 in
    let run_pass p (pass : pass) =
      let module P = (val pass) in
      incr idx;
      let ops_before = count_ops p in
      let t0 = Clock.now () in
      (* Re-canonicalize site ids after every pass: transforms mint fresh
         sites from a global counter, and site ids feed the branch
         predictor, so leaving them raw would make timing depend on global
         build history (and race across domains). *)
      let p' = Phloem_ir.Types.renumber_sites (P.run ctx p) in
      let wall = Clock.now () -. t0 in
      if t.options.verify_each then verify_after ctx pass p';
      Option.iter (fun dir -> dump_snapshot dir !idx P.name p') t.options.dump_ir;
      let ops_after = count_ops p' in
      Log.debug ~component:"pass" "%s: %d -> %d ops, %d stages, %.3f ms" P.name
        ops_before ops_after (List.length p'.p_stages) (wall *. 1000.0);
      reports :=
        {
          pr_name = P.name;
          pr_wall_s = wall;
          pr_ops_before = ops_before;
          pr_ops_after = ops_after;
          pr_stages_after = List.length p'.p_stages;
        }
        :: !reports;
      p'
    in
    let pfinal = List.fold_left run_pass p0 t.passes in
    ( pfinal,
      { rep_passes = List.rev !reports; rep_wall_s = Clock.now () -. t_start } )
end
