(* Pieces shared by the three workloads: the metric record, what one
   workload run returns, order statistics, peak RSS and the round loop. *)

type metric = { m_name : string; m_unit : string; m_value : float }

let metric m_name m_unit m_value = { m_name; m_unit; m_value }

(* What one workload run returns. *)
type run = {
  attempted : int;
  failed : int;  (* correctness checks that did not hold *)
  e2e : metric list;  (* from the untraced rounds *)
  layers : metric list;  (* from the traced rounds; empty when untraced *)
  report : string list;  (* human-readable traced-run summary *)
  trace : Pipette.Telemetry.Json.t option;  (* Chrome trace of the spans *)
}

let median = function
  | [] -> invalid_arg "median: empty"
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile, [p] in [0, 1]. *)
let percentile p l = Phloem_util.Stats.percentile p l

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb ?(pid = "self") () =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec find () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> find ()
    | exception End_of_file -> nan
  in
  find ()

let digest_lines l = Digest.to_hex (Digest.string (String.concat "\n" l))

(* [f 0], [f 1], ... until [seconds] of host time have passed; at least
   [min] rounds. *)
let repeat_for ?(min = 1) ~seconds f =
  let t0 = Clock.now () in
  let rec go i acc =
    if i >= min && Clock.now () -. t0 >= seconds then List.rev acc
    else go (i + 1) (f i :: acc)
  in
  go 0 []

(* The median of [n] set-ups, keeping the last one's product. *)
let timed_setups ~n f =
  let rec go i times last =
    if i = n then (median times, Option.get last)
    else
      let t0 = Clock.now () in
      let x = f () in
      go (i + 1) ((Clock.now () -. t0) :: times) (Some x)
  in
  go 0 [] None

let write_file path s =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc s;
      output_char oc '\n')

let fmt_metric m = Printf.sprintf "  %-34s %14.6g %s" m.m_name m.m_value m.m_unit

(* [name].calls and [name].busy_s of a span layer, per round over
   [rounds] rounds. *)
let layer_metrics ?(rounds = 1) name (x : Span.layer) =
  let per v = v /. float_of_int rounds in
  [
    metric (name ^ ".calls") "count" (per (float_of_int x.Span.l_calls));
    metric (name ^ ".busy_s") "s" (per x.Span.l_busy);
  ]

(* The traced-run summary every workload prints and writes: self time per
   layer and round, coverage against the traced wall with its tolerance,
   and the tracing overhead. *)
let layer_report ~workload ~rounds ~(layers : (string * Span.layer) list) ~coverage
    ~tolerance ~overhead =
  let per v = v /. float_of_int rounds in
  Printf.sprintf "%s traced run, per round over %d traced round(s):" workload rounds
  :: List.map
       (fun (name, (l : Span.layer)) ->
         Printf.sprintf "  %-24s calls %10.1f  busy %10.6f s  self %10.6f s" name
           (per (float_of_int l.Span.l_calls)) (per l.Span.l_busy) (per l.Span.l_self))
       layers
  @ [
      Printf.sprintf "  coverage %.4f (%s)" coverage tolerance;
      Printf.sprintf "  tracing overhead %+.6f s per round (traced - untraced wall)"
        overhead;
    ]

let json_of_metrics (ms : metric list) : Pipette.Telemetry.Json.t =
  let module J = Pipette.Telemetry.Json in
  J.Obj
    (List.map
       (fun m -> (m.m_name, J.Obj [ ("value", J.Float m.m_value); ("unit", J.Str m.m_unit) ]))
       ms)
