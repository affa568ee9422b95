(* Deterministic fault injection: see faults.mli for the model. All random
   decisions come from one splitmix64 stream keyed by the plan; the engine
   is serial and deterministic, so draws happen in the same order on every
   replay of the same (plan, program, input). *)

open Phloem_util

type spec =
  | Queue_drop of { queue : int; prob : float }
  | Queue_dup of { queue : int; prob : float }
  | Latency_spike of { level : int; extra : int; prob : float }
  | Thread_stall of { thread : int; period : int; duration : int }
  | Thread_kill of { thread : int; after_retired : int }
  | Predictor_poison of { prob : float }

type plan = { fp_key : int; fp_specs : spec list }

let plan ?(key = 0) specs = { fp_key = key; fp_specs = specs }

(* Retry attempt [n] re-keys the stream through the keyed constructor, so
   attempts enumerate independent fault realizations of the same plan. *)
let rekey p ~attempt =
  if attempt = 0 then p
  else { p with fp_key = p.fp_key + (attempt * 0x9e3779b97f4a7c1) }

type counters = {
  mutable c_drops : int;
  mutable c_dups : int;
  mutable c_spikes : int;
  mutable c_stall_cycles : int;
  mutable c_kills : int;
  mutable c_poisons : int;
}

type t = {
  t_plan : plan;
  rng : Prng.t;
  cnt : counters;
  mutable killed : int list; (* threads already past their kill threshold *)
}

let create p =
  {
    t_plan = p;
    rng = Prng.of_key ~seed:p.fp_key ~key:0x466c74; (* "Flt" *)
    cnt =
      {
        c_drops = 0;
        c_dups = 0;
        c_spikes = 0;
        c_stall_cycles = 0;
        c_kills = 0;
        c_poisons = 0;
      };
    killed = [];
  }

let counters t = t.cnt
let total t =
  t.cnt.c_drops + t.cnt.c_dups + t.cnt.c_spikes + t.cnt.c_stall_cycles
  + t.cnt.c_kills + t.cnt.c_poisons

let roll t prob = prob > 0.0 && Prng.float t.rng 1.0 < prob

let drop_enq t ~queue =
  List.exists
    (function
      | Queue_drop { queue = q; prob } when q = -1 || q = queue ->
        if roll t prob then begin
          t.cnt.c_drops <- t.cnt.c_drops + 1;
          true
        end
        else false
      | _ -> false)
    t.t_plan.fp_specs

let dup_enq t ~queue =
  List.exists
    (function
      | Queue_dup { queue = q; prob } when q = -1 || q = queue ->
        if roll t prob then begin
          t.cnt.c_dups <- t.cnt.c_dups + 1;
          true
        end
        else false
      | _ -> false)
    t.t_plan.fp_specs

let spike t ~level =
  List.fold_left
    (fun acc spec ->
      match spec with
      | Latency_spike { level = l; extra; prob } when l = level ->
        if roll t prob then begin
          t.cnt.c_spikes <- t.cnt.c_spikes + 1;
          acc + extra
        end
        else acc
      | _ -> acc)
    0 t.t_plan.fp_specs

(* Stall windows are a pure function of the cycle count — no PRNG draw, so
   fast-forwarding over stalled regions never desynchronizes the stream. *)
let stall_release t ~thread ~now =
  let release =
    List.fold_left
      (fun acc spec ->
        match spec with
        | Thread_stall { thread = th; period; duration }
          when th = thread && period > 0 && now mod period < duration ->
          max acc (now - (now mod period) + duration)
        | _ -> acc)
      (-1) t.t_plan.fp_specs
  in
  if release >= 0 then t.cnt.c_stall_cycles <- t.cnt.c_stall_cycles + 1;
  release

let should_kill t ~thread ~retired =
  (not (List.mem thread t.killed))
  && List.exists
       (function
         | Thread_kill { thread = th; after_retired } ->
           th = thread && retired >= after_retired
         | _ -> false)
       t.t_plan.fp_specs
  && begin
       t.killed <- thread :: t.killed;
       t.cnt.c_kills <- t.cnt.c_kills + 1;
       true
     end

let poison t =
  List.exists
    (function
      | Predictor_poison { prob } ->
        if roll t prob then begin
          t.cnt.c_poisons <- t.cnt.c_poisons + 1;
          true
        end
        else false
      | _ -> false)
    t.t_plan.fp_specs

(* ---------- plan syntax ---------- *)

let level_name = function
  | 0 -> "ra"
  | 1 -> "l1"
  | 2 -> "l2"
  | 3 -> "l3"
  | _ -> "dram"

let spec_to_string = function
  | Queue_drop { queue; prob } ->
    if queue < 0 then Printf.sprintf "drop:%g" prob
    else Printf.sprintf "drop@q%d:%g" queue prob
  | Queue_dup { queue; prob } ->
    if queue < 0 then Printf.sprintf "dup:%g" prob
    else Printf.sprintf "dup@q%d:%g" queue prob
  | Latency_spike { level; extra; prob } ->
    Printf.sprintf "spike@%s+%d:%g" (level_name level) extra prob
  | Thread_stall { thread; period; duration } ->
    Printf.sprintf "stall@t%d:%dx%d" thread period duration
  | Thread_kill { thread; after_retired } ->
    Printf.sprintf "kill@t%d:%d" thread after_retired
  | Predictor_poison { prob } -> Printf.sprintf "poison:%g" prob

let to_string p = String.concat "," (List.map spec_to_string p.fp_specs)

let parse_spec s =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let split2 sep str =
    match String.index_opt str sep with
    | Some i ->
      Some
        ( String.sub str 0 i,
          String.sub str (i + 1) (String.length str - i - 1) )
    | None -> None
  in
  let head, target =
    match split2 '@' s with
    | Some (h, rest) -> (h, Some rest)
    | None -> (
      match split2 ':' s with Some (h, _) -> (h, None) | None -> (s, None))
  in
  let prob_of str =
    match float_of_string_opt str with
    | Some p when p >= 0.0 && p <= 1.0 -> Ok p
    | _ -> Error (Printf.sprintf "bad probability %S" str)
  in
  let int_of str =
    match int_of_string_opt str with
    | Some n when n >= 0 -> Ok n
    | _ -> Error (Printf.sprintf "bad number %S" str)
  in
  let ( let* ) = Result.bind in
  let after_colon str =
    match split2 ':' str with
    | Some (a, b) -> Ok (a, b)
    | None -> fail "missing ':' in %S" s
  in
  match head with
  | "drop" | "dup" ->
    let* queue, prob_str =
      match target with
      | None -> (
        match split2 ':' s with
        | Some (_, p) -> Ok (-1, p)
        | None -> fail "missing probability in %S" s)
      | Some rest ->
        let* tgt, p = after_colon rest in
        if String.length tgt > 1 && tgt.[0] = 'q' then
          let* q = int_of (String.sub tgt 1 (String.length tgt - 1)) in
          Ok (q, p)
        else fail "expected q<N> in %S" s
    in
    let* prob = prob_of prob_str in
    if head = "drop" then Ok (Queue_drop { queue; prob })
    else Ok (Queue_dup { queue; prob })
  | "spike" ->
    let* rest =
      match target with Some r -> Ok r | None -> fail "spike needs @level in %S" s
    in
    let* tgt, prob_str = after_colon rest in
    let* level, extra_str =
      match split2 '+' tgt with
      | Some (lvl, e) -> (
        match lvl with
        | "ra" -> Ok (0, e)
        | "l1" -> Ok (1, e)
        | "l2" -> Ok (2, e)
        | "l3" -> Ok (3, e)
        | "dram" -> Ok (4, e)
        | other -> fail "unknown level %S (want l1|l2|l3|dram|ra)" other)
      | None -> fail "spike needs +EXTRA in %S" s
    in
    let* extra = int_of extra_str in
    let* prob = prob_of prob_str in
    Ok (Latency_spike { level; extra; prob })
  | "stall" ->
    let* rest =
      match target with Some r -> Ok r | None -> fail "stall needs @tN in %S" s
    in
    let* tgt, sched = after_colon rest in
    if String.length tgt > 1 && tgt.[0] = 't' then
      let* thread = int_of (String.sub tgt 1 (String.length tgt - 1)) in
      let* period, duration =
        match split2 'x' sched with
        | Some (p, d) ->
          let* p = int_of p in
          let* d = int_of d in
          Ok (p, d)
        | None -> fail "stall needs PERIODxDURATION in %S" s
      in
      if duration >= period then fail "stall duration must be < period in %S" s
      else Ok (Thread_stall { thread; period; duration })
    else fail "expected t<N> in %S" s
  | "kill" ->
    let* rest =
      match target with Some r -> Ok r | None -> fail "kill needs @tN in %S" s
    in
    let* tgt, after = after_colon rest in
    if String.length tgt > 1 && tgt.[0] = 't' then
      let* thread = int_of (String.sub tgt 1 (String.length tgt - 1)) in
      let* after_retired = int_of after in
      Ok (Thread_kill { thread; after_retired })
    else fail "expected t<N> in %S" s
  | "poison" ->
    let* prob =
      match split2 ':' s with
      | Some (_, p) -> prob_of p
      | None -> fail "poison needs :PROB in %S" s
    in
    Ok (Predictor_poison { prob })
  | other -> fail "unknown fault %S (want drop|dup|spike|stall|kill|poison)" other

let of_string str =
  let parts =
    String.split_on_char ',' str |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  if parts = [] then Error "empty fault plan"
  else
    let rec go acc = function
      | [] -> Ok { fp_key = 0; fp_specs = List.rev acc }
      | s :: rest -> (
        match parse_spec s with
        | Ok spec -> go (spec :: acc) rest
        | Error e -> Error e)
    in
    go [] parts

let json_of_counters t =
  let open Phloem_util.Json in
  Obj
    [
      ("drops", Int t.cnt.c_drops);
      ("dups", Int t.cnt.c_dups);
      ("spikes", Int t.cnt.c_spikes);
      ("stall_cycles", Int t.cnt.c_stall_cycles);
      ("kills", Int t.cnt.c_kills);
      ("poisons", Int t.cnt.c_poisons);
      ("total", Int (total t));
    ]
