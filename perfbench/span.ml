(* In-memory spans for the traced runs: name, track, start, stop and
   parent, recorded around calls into each layer's public functions and
   written out once the run ends. A disabled recorder runs the thunk and
   reads no clock, so untraced rounds pay nothing. *)

type span = {
  sp_id : int;
  sp_parent : int;  (* -1 at a root *)
  sp_track : string;
  sp_name : string;
  sp_start : float;  (* Clock seconds *)
  sp_stop : float;
}

type t = {
  enabled : bool;
  mutable next_id : int;
  mutable open_ : int list;  (* innermost first *)
  mutable spans : span list;  (* reverse completion order *)
}

let create ~enabled = { enabled; next_id = 0; open_ = []; spans = [] }
let enabled t = t.enabled

let with_ t name f =
  if not t.enabled then f ()
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = match t.open_ with p :: _ -> p | [] -> -1 in
    t.open_ <- id :: t.open_;
    let start = Clock.now () in
    Fun.protect f ~finally:(fun () ->
        let stop = Clock.now () in
        t.open_ <- List.tl t.open_;
        t.spans <-
          {
            sp_id = id;
            sp_parent = parent;
            sp_track = "perfbench";
            sp_name = name;
            sp_start = start;
            sp_stop = stop;
          }
          :: t.spans)
  end

let by_start a b =
  match compare a.sp_start b.sp_start with 0 -> compare b.sp_stop a.sp_stop | c -> c

let spans t = List.sort by_start t.spans

(* Spans recorded elsewhere (phloemd's trace file) carry no parent: on each
   track, a span's parent is the innermost earlier span containing it. *)
let nest (raw : (string * string * float * float) list) : span list =
  let spans =
    List.mapi
      (fun i (track, name, start, stop) ->
        { sp_id = i; sp_parent = -1; sp_track = track; sp_name = name;
          sp_start = start; sp_stop = stop })
      raw
    |> List.sort by_start
  in
  let stacks = Hashtbl.create 8 in
  List.map
    (fun s ->
      let rec pop = function
        | p :: rest when not (p.sp_start <= s.sp_start && s.sp_stop <= p.sp_stop) ->
          pop rest
        | st -> st
      in
      let st = pop (Option.value ~default:[] (Hashtbl.find_opt stacks s.sp_track)) in
      let s = { s with sp_parent = (match st with p :: _ -> p.sp_id | [] -> -1) } in
      Hashtbl.replace stacks s.sp_track (s :: st);
      s)
    spans

type layer = { l_calls : int; l_busy : float; l_self : float }

let no_layer = { l_calls = 0; l_busy = 0.0; l_self = 0.0 }

(* Per span name: call count, busy time (summed durations) and self time
   (each span's duration minus the part its child spans cover). *)
let layers (spans : span list) : (string * layer) list =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.sp_parent >= 0 then
        Hashtbl.replace child s.sp_parent
          (s.sp_stop -. s.sp_start
          +. Option.value ~default:0.0 (Hashtbl.find_opt child s.sp_parent)))
    spans;
  let acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let d = s.sp_stop -. s.sp_start in
      let self = d -. Option.value ~default:0.0 (Hashtbl.find_opt child s.sp_id) in
      let l = Option.value ~default:no_layer (Hashtbl.find_opt acc s.sp_name) in
      Hashtbl.replace acc s.sp_name
        { l_calls = l.l_calls + 1; l_busy = l.l_busy +. d; l_self = l.l_self +. self })
    spans;
  List.sort compare (List.of_seq (Hashtbl.to_seq acc))

(* Layers of several independent span sets, summed by name. *)
let sum_layers (sets : (string * layer) list list) : (string * layer) list =
  let acc = Hashtbl.create 16 in
  List.iter
    (List.iter (fun (name, l) ->
         let a = Option.value ~default:no_layer (Hashtbl.find_opt acc name) in
         Hashtbl.replace acc name
           { l_calls = a.l_calls + l.l_calls; l_busy = a.l_busy +. l.l_busy;
             l_self = a.l_self +. l.l_self }))
    sets;
  List.sort compare (List.of_seq (Hashtbl.to_seq acc))

let layer (ls : (string * layer) list) name =
  Option.value ~default:no_layer (List.assoc_opt name ls)

(* Chrome trace-event JSON of the spans, through the shared emitter. *)
let trace_json ~process (spans : span list) : Pipette.Telemetry.Json.t =
  let tracks = List.sort_uniq compare (List.map (fun s -> s.sp_track) spans) in
  let tid tr =
    let rec find i = function
      | x :: _ when x = tr -> i
      | _ :: rest -> find (i + 1) rest
      | [] -> 0
    in
    find 0 tracks
  in
  let epoch = List.fold_left (fun m s -> Float.min m s.sp_start) infinity spans in
  let us v = int_of_float (Float.round ((v -. epoch) *. 1e6)) in
  Pipette.Telemetry.trace_events_json
    ~process_names:[ (0, process) ]
    ~thread_names:(List.map (fun tr -> ((0, tid tr), tr)) tracks)
    (List.map
       (fun s ->
         {
           Pipette.Telemetry.te_pid = 0;
           te_tid = tid s.sp_track;
           te_cat = "layer";
           te_name = s.sp_name;
           te_ts = us s.sp_start;
           te_dur = max 1 (us s.sp_stop - us s.sp_start);
         })
       spans)
