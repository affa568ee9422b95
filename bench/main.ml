(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md's experiment index).

   Usage:
     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe fig9            # one experiment
     dune exec bench/main.exe table3 fig6 ...
     PHLOEM_SCALE=0.5 dune exec bench/main.exe  # smaller inputs
     dune exec bench/main.exe --json out.json # fig9-11 data as JSON
     dune exec bench/main.exe -- --jobs 4     # parallel sweep on 4 domains
     dune exec bench/main.exe -- --compare old.json new.json
                                              # regression diff; exit 4 on a
                                              # regression (0 with --warn) *)

(* --- flag parsing (no cmdliner dep here) --- *)

type opts = {
  o_json : string option; (* --json FILE: fig9-11 data as JSON *)
  o_jobs : int; (* --jobs N: domains for the parallel sweep *)
  o_pgo : bool; (* --no-pgo: skip profile-guided search *)
  o_only : string list option; (* --only A,B: restrict sweep inputs *)
  o_compare : (string * string) option; (* --compare OLD NEW: diff reports *)
  o_warn : bool; (* --warn: report regressions without failing *)
  o_args : string list; (* positional experiment names *)
}

let parse_args args =
  let prefixed p a =
    let n = String.length p in
    if String.length a > n && String.sub a 0 n = p then
      Some (String.sub a n (String.length a - n))
    else None
  in
  let split_commas s = String.split_on_char ',' s |> List.filter (( <> ) "") in
  let rec go o = function
    | [] -> { o with o_args = List.rev o.o_args }
    | "--json" :: file :: rest -> go { o with o_json = Some file } rest
    | "--jobs" :: n :: rest -> go { o with o_jobs = int_of_string n } rest
    | "--no-pgo" :: rest -> go { o with o_pgo = false } rest
    | "--only" :: names :: rest ->
      go { o with o_only = Some (split_commas names) } rest
    | "--compare" :: old_f :: new_f :: rest ->
      go { o with o_compare = Some (old_f, new_f) } rest
    | "--warn" :: rest -> go { o with o_warn = true } rest
    | a :: rest -> (
      match (prefixed "--json=" a, prefixed "--jobs=" a, prefixed "--only=" a) with
      | Some f, _, _ -> go { o with o_json = Some f } rest
      | _, Some n, _ -> go { o with o_jobs = int_of_string n } rest
      | _, _, Some s -> go { o with o_only = Some (split_commas s) } rest
      | None, None, None -> go { o with o_args = a :: o.o_args } rest)
  in
  go
    {
      o_json = None;
      o_jobs = Phloem_util.Pool.default_jobs ();
      o_pgo = true;
      o_only = None;
      o_compare = None;
      o_warn = false;
      o_args = [];
    }
    args

(* --- --compare OLD NEW: diff two evaluation JSON reports and exit 4 on a
   regression beyond the default thresholds (unless --warn). --- *)

let compare_reports ~warn old_file new_file =
  let module R = Phloem_harness.Regress in
  Printf.printf "==== Benchmark comparison: %s -> %s ====\n" old_file new_file;
  match R.compare_files ~old_file ~new_file () with
  | exception Phloem_util.Json.Parse_error msg ->
    Printf.eprintf "error: malformed report: %s\n" msg;
    exit 2
  | exception Sys_error msg ->
    Printf.eprintf "error: %s\n" msg;
    exit 2
  | o ->
    print_string (R.render o);
    if R.regressed o then
      if warn then
        print_endline "regressions found (exit 0: --warn)"
      else begin
        print_endline "regressions found";
        exit 4
      end

let () =
  let module E = Phloem_harness.Experiments in
  (* The tracer and the workload binders allocate heavily between engine
     replays; with the default 256k-word minor heap the resulting minor
     collections interleave with the replays and slow the engine. A
     4M-word minor heap (per domain) makes them rarer. Set before any
     domain spawns so pool domains inherit it. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 4 * 1024 * 1024 };
  let scale = E.default_scale () in
  let o = parse_args (Array.to_list Sys.argv |> List.tl) in
  Phloem_util.Pool.with_pool ~jobs:o.o_jobs @@ fun pool ->
  let dispatch = function
    | "table3" -> E.table3 ()
    | "table4" -> E.table4 ~scale ()
    | "table5" -> E.table5 ~scale ()
    | "fig6" -> E.fig6 ~scale ()
    | "fig9" -> E.fig9 ~pool ~scale ()
    | "fig10" -> E.fig10 ~pool ~scale ()
    | "fig11" -> E.fig11 ~pool ~scale ()
    | "fig12" -> E.fig12 ~pool ~scale ()
    | "fig13" -> E.fig13 ~pool ~scale ()
    | "fig14" -> E.fig14 ~scale ()
    | other -> Printf.eprintf "unknown experiment %s\n" other
  in
  match o.o_compare with
  | Some (old_f, new_f) -> compare_reports ~warn:o.o_warn old_f new_f
  | None -> (
    match (o.o_json, o.o_args) with
    | Some file, [] ->
      ignore
        (E.write_json_report ~pool ?only_inputs:o.o_only ~pgo:o.o_pgo ~scale
           ~file ())
    | Some file, args ->
      ignore
        (E.write_json_report ~pool ?only_inputs:o.o_only ~pgo:o.o_pgo ~scale
           ~file ());
      List.iter dispatch args
    | None, [] -> E.run_all_experiments ~pool ~scale ()
    | None, args -> List.iter dispatch args)
