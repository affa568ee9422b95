(** Run-to-run benchmark comparison: diff two evaluation JSON reports (the
    format of {!Experiments.write_json_report}) metric by metric and flag
    changes beyond per-metric thresholds as regressions. Backs
    [bench/main.exe --compare OLD NEW] and the CI baseline check. *)

type thresholds = {
  th_cycles : float;
      (** cycle-count increase beyond this fraction is a regression *)
  th_speedup : float;
      (** speedup decrease beyond this fraction is a regression *)
  th_energy : float;
      (** total-energy increase beyond this fraction is a regression *)
  th_ops_per_sec : float;
      (** simulated-ops-per-wall-second decrease beyond this fraction is a
          regression (wall-clock reports only) *)
}

val default_thresholds : thresholds
(** 5% cycles, 5% speedup, 10% energy, 10% throughput. *)

type delta = {
  d_key : string;  (** ["benchmark/input/variant/metric"] *)
  d_old : float;
  d_new : float;
  d_change : float;  (** relative: [(new - old) / old] *)
  d_regressed : bool;
}

type outcome = {
  o_deltas : delta list;  (** every metric present in both reports *)
  o_regressions : delta list;  (** the subset beyond its threshold *)
  o_missing : string list;  (** series in OLD but absent from NEW *)
  o_added : string list;  (** series in NEW but absent from OLD *)
  o_errored : string list;
      (** series in OLD whose absence from NEW is explained by a failure
          record in NEW's ["errors"] array (a deadlocked variant, a failed
          cell) — reported separately from silent omissions *)
}

val regressed : outcome -> bool

val compare_json :
  ?thresholds:thresholds ->
  old_j:Phloem_util.Json.t ->
  new_j:Phloem_util.Json.t ->
  unit ->
  outcome
(** Metrics compared per [benchmark/input/variant] series: [cycles],
    [speedup], and [energy_nj.total]. A wall-clock report (detected by its
    ["serial_wall_s"] key) flattens to a synthetic ["wall/sweep"] series
    carrying [ops_per_sec], [speedup], and the informational
    [serial_wall_s]. Series or metrics present in only one report are
    listed, not errors — a baseline written by an older build still diffs
    on whatever it shares. *)

val compare_files :
  ?thresholds:thresholds -> old_file:string -> new_file:string -> unit -> outcome
(** @raise Phloem_util.Json.Parse_error on malformed input
    @raise Sys_error if a file cannot be read *)

val render : ?all:bool -> outcome -> string
(** Table of changed series (all series when [all]), plus missing/added
    lists and a summary line. *)
