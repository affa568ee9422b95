(* Run-to-run benchmark comparison: diff two evaluation JSON reports (the
   format written by [Experiments.write_json_report]) metric by metric, flag
   changes beyond per-metric thresholds as regressions, and render a table.
   This is the substrate behind `bench/main.exe --compare OLD NEW` and the
   CI baseline check against BENCH_baseline.json. *)

module Json = Phloem_util.Json
module Table = Phloem_util.Table

type thresholds = {
  th_cycles : float; (* cycle-count increase beyond this fraction regresses *)
  th_speedup : float; (* speedup decrease beyond this fraction regresses *)
  th_energy : float; (* total-energy increase beyond this fraction regresses *)
  th_ops_per_sec : float;
      (* simulated-ops-per-wall-second decrease beyond this fraction
         regresses; looser than the cycle thresholds because wall time is
         machine-sensitive *)
}

let default_thresholds =
  { th_cycles = 0.05; th_speedup = 0.05; th_energy = 0.10; th_ops_per_sec = 0.10 }

type delta = {
  d_key : string; (* "benchmark/input/variant/metric" *)
  d_old : float;
  d_new : float;
  d_change : float; (* relative: (new - old) / old *)
  d_regressed : bool;
}

type outcome = {
  o_deltas : delta list; (* every metric present in both reports *)
  o_regressions : delta list; (* the subset beyond its threshold *)
  o_missing : string list; (* series in OLD but absent from NEW *)
  o_added : string list; (* series in NEW but absent from OLD *)
  o_errored : string list;
      (* series in OLD whose absence from NEW is explained by a recorded
         failure in NEW's "errors" array — known-errored, not silently
         missing *)
}

let regressed outcome = outcome.o_regressions <> []

(* Flatten a report to ("bench/input/variant" -> (metric, value) list).
   Unknown or malformed nodes are skipped, not errors: a baseline written by
   an older build should still diff on whatever metrics it shares. *)
let flatten (j : Json.t) : (string * (string * float) list) list =
  let num path j =
    match Option.bind (Json.member path j) Json.to_float_opt with
    | Some v -> Some (path, v)
    | None -> None
  in
  let energy j =
    match Option.bind (Json.member "energy_nj" j) (Json.member "total") with
    | Some e -> ( match Json.to_float_opt e with
      | Some v -> Some ("energy_total", v)
      | None -> None)
    | None -> None
  in
  let series = ref [] in
  let str k j = match Json.member k j with Some (Json.Str s) -> s | _ -> "?" in
  (* A wall-clock report (the --wall output, detected by its
     "serial_wall_s" key) flattens to one synthetic series so throughput
     and sweep parallelism diff through the same machinery as the
     evaluation metrics. *)
  (match Json.member "serial_wall_s" j with
  | Some _ ->
    let metrics =
      List.filter_map Fun.id
        [ num "ops_per_sec" j; num "speedup" j; num "serial_wall_s" j ]
    in
    if metrics <> [] then series := ("wall/sweep", metrics) :: !series
  | None -> ());
  (match Json.member "benchmarks" j with
  | Some (Json.List benches) ->
    List.iter
      (fun b ->
        let bench = str "benchmark" b in
        match Json.member "inputs" b with
        | Some (Json.List inputs) ->
          List.iter
            (fun inp ->
              let input = str "input" inp in
              match Json.member "runs" inp with
              | Some (Json.Obj variants) ->
                List.iter
                  (fun (variant, m) ->
                    match m with
                    | Json.Obj _ ->
                      let metrics =
                        List.filter_map Fun.id
                          [ num "cycles" m; num "speedup" m; energy m ]
                      in
                      if metrics <> [] then
                        series :=
                          (Printf.sprintf "%s/%s/%s" bench input variant, metrics)
                          :: !series
                    | _ -> ())
                  variants
              | _ -> ())
            inputs
        | _ -> ())
      benches
  | _ -> ());
  List.rev !series

(* Series keys covered by a report's failure records ("bench/input/variant",
   matching [flatten]'s key spelling): the top-level "errors" array written
   by [Experiments.json_of_collection] plus the per-run "errors" arrays.
   Variant "*" (a whole failed cell) yields a "bench/input/*" wildcard.
   Failure records carry CLI-style variant names ("data-parallel"); series
   keys use the JSON field spelling ("data_parallel") — normalize. *)
let errored_series (j : Json.t) : string list =
  let acc = ref [] in
  let str k j = match Json.member k j with Some (Json.Str s) -> s | _ -> "?" in
  let add b i v =
    let v = String.map (fun c -> if c = '-' then '_' else c) v in
    acc := Printf.sprintf "%s/%s/%s" b i v :: !acc
  in
  (match Json.member "errors" j with
  | Some (Json.List es) ->
    List.iter
      (fun e -> add (str "benchmark" e) (str "input" e) (str "variant" e))
      es
  | _ -> ());
  (match Json.member "benchmarks" j with
  | Some (Json.List benches) ->
    List.iter
      (fun b ->
        let bench = str "benchmark" b in
        match Json.member "inputs" b with
        | Some (Json.List inputs) ->
          List.iter
            (fun inp ->
              let input = str "input" inp in
              (match Json.member "error" inp with
              | Some _ -> add bench input "*"
              | None -> ());
              match Option.bind (Json.member "runs" inp) (Json.member "errors") with
              | Some (Json.List es) ->
                List.iter (fun e -> add bench input (str "variant" e)) es
              | _ -> ())
            inputs
        | _ -> ())
      benches
  | _ -> ());
  List.sort_uniq compare !acc

let errored_matches errored key =
  List.exists
    (fun e ->
      let n = String.length e in
      if n > 0 && e.[n - 1] = '*' then
        let p = String.sub e 0 (n - 1) in
        String.length key >= String.length p
        && String.sub key 0 (String.length p) = p
      else e = key)
    errored

let judge th metric ~old_v ~new_v =
  let change =
    if old_v = 0.0 then (if new_v = 0.0 then 0.0 else 1.0)
    else (new_v -. old_v) /. old_v
  in
  let regressed =
    match metric with
    | "cycles" -> change > th.th_cycles
    | "speedup" -> change < -.th.th_speedup
    | "energy_total" -> change > th.th_energy
    | "ops_per_sec" -> change < -.th.th_ops_per_sec
    | _ -> false (* serial_wall_s is informational: machine-dependent *)
  in
  (change, regressed)

let compare_json ?(thresholds = default_thresholds) ~old_j ~new_j () : outcome =
  let old_s = flatten old_j and new_s = flatten new_j in
  let errored = errored_series new_j in
  let deltas = ref [] and missing = ref [] and errored_l = ref [] in
  List.iter
    (fun (key, old_metrics) ->
      match List.assoc_opt key new_s with
      | None ->
        (* tolerate a series NEW *knows* it lost to a failure: it is
           reported separately, not lumped in with silent omissions *)
        if errored_matches errored key then errored_l := key :: !errored_l
        else missing := key :: !missing
      | Some new_metrics ->
        List.iter
          (fun (metric, old_v) ->
            match List.assoc_opt metric new_metrics with
            | None -> ()
            | Some new_v ->
              let change, regressed =
                judge thresholds metric ~old_v ~new_v
              in
              deltas :=
                {
                  d_key = key ^ "/" ^ metric;
                  d_old = old_v;
                  d_new = new_v;
                  d_change = change;
                  d_regressed = regressed;
                }
                :: !deltas)
          old_metrics)
    old_s;
  let added =
    List.filter_map
      (fun (key, _) ->
        if List.mem_assoc key old_s then None else Some key)
      new_s
  in
  let deltas = List.rev !deltas in
  {
    o_deltas = deltas;
    o_regressions = List.filter (fun d -> d.d_regressed) deltas;
    o_missing = List.rev !missing;
    o_added = added;
    o_errored = List.rev !errored_l;
  }

let compare_files ?thresholds ~old_file ~new_file () : outcome =
  compare_json ?thresholds ~old_j:(Json.of_file old_file)
    ~new_j:(Json.of_file new_file) ()

let render ?(all = false) (o : outcome) : string =
  let buf = Buffer.create 1024 in
  let shown =
    if all then o.o_deltas
    else List.filter (fun d -> d.d_regressed || abs_float d.d_change > 0.001) o.o_deltas
  in
  if shown = [] then Buffer.add_string buf "no metric changed by more than 0.1%\n"
  else begin
    let t = Table.create [ "Series"; "Old"; "New"; "Change"; "" ] in
    List.iter
      (fun d ->
        Table.add_row t
          [
            d.d_key;
            Printf.sprintf "%.4g" d.d_old;
            Printf.sprintf "%.4g" d.d_new;
            Printf.sprintf "%+.1f%%" (100.0 *. d.d_change);
            (if d.d_regressed then "REGRESSED" else "");
          ])
      shown;
    Buffer.add_string buf (Table.render t)
  end;
  List.iter
    (fun k -> Printf.bprintf buf "missing from new report: %s\n" k)
    o.o_missing;
  List.iter
    (fun k -> Printf.bprintf buf "errored in new report (see its \"errors\" array): %s\n" k)
    o.o_errored;
  List.iter (fun k -> Printf.bprintf buf "new series: %s\n" k) o.o_added;
  Printf.bprintf buf "%d series compared, %d regression(s)\n"
    (List.length o.o_deltas) (List.length o.o_regressions);
  Buffer.contents buf
