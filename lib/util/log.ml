(* Structured diagnostics for the compiler and harness. Records carry a
   severity and a component tag; a single pluggable sink receives every
   record that passes the level filter, so callers (CLI, tests, harness)
   decide where output goes without the core library printing on its own. *)

type level = Debug | Info | Warn | Error

type record = {
  r_level : level;
  r_component : string; (* e.g. "pass", "search", "runner" *)
  r_message : string;
}

let severity = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let level_to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string = function
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" | "warning" -> Some Warn
  | "error" -> Some Error
  | _ -> None

let threshold = ref Warn
let set_level l = threshold := l
let level () = !threshold
let enabled l = severity l >= severity !threshold

let default_sink r =
  Printf.eprintf "[phloem %s] %s: %s\n%!"
    (level_to_string r.r_level)
    r.r_component r.r_message

let sink : (record -> unit) ref = ref default_sink

(* Emission is serialized: parallel harness jobs (Phloem_util.Pool) log
   from several domains at once, and neither stderr lines nor custom sinks
   (e.g. the capture buffer below) are domain-safe on their own. *)
let emit_mutex = Mutex.create ()

let emit ~component l msg =
  if enabled l then
    Mutex.protect emit_mutex (fun () ->
        !sink { r_level = l; r_component = component; r_message = msg })

let logf ?(component = "phloem") l fmt =
  if enabled l then Printf.ksprintf (fun s -> emit ~component l s) fmt
  else Printf.ikfprintf (fun () -> ()) () fmt

let debug ?component fmt = logf ?component Debug fmt
let info ?component fmt = logf ?component Info fmt
let warn ?component fmt = logf ?component Warn fmt
let error ?component fmt = logf ?component Error fmt

(* Run [f] with records captured into a list (most recent last); restores the
   previous sink and level afterwards. Used by tests and the harness to
   collect diagnostics from a compilation without touching stderr. *)
let with_capture ?(level = Debug) f =
  let saved_sink = !sink and saved_level = !threshold in
  let captured = ref [] in
  sink := (fun r -> captured := r :: !captured);
  threshold := level;
  Fun.protect
    ~finally:(fun () ->
      sink := saved_sink;
      threshold := saved_level)
    (fun () ->
      let x = f () in
      (x, List.rev !captured))
