(** Structured diagnostics: level-filtered records routed to a pluggable
    sink. The default sink writes to stderr; the default level is [Warn] so
    library code stays quiet unless a caller opts in.

    Emission is domain-safe: a mutex serializes sink invocations, so
    records from parallel harness jobs never interleave and capture sinks
    need no locking of their own. [set_level] is still process-global
    configuration — set it before fanning work out. *)

type level = Debug | Info | Warn | Error

type record = {
  r_level : level;
  r_component : string;
  r_message : string;
}

val severity : level -> int
val level_to_string : level -> string
val level_of_string : string -> level option

val set_level : level -> unit
val level : unit -> level
val enabled : level -> bool

val default_sink : record -> unit

val debug : ?component:string -> ('a, unit, string, unit) format4 -> 'a
val info : ?component:string -> ('a, unit, string, unit) format4 -> 'a
val warn : ?component:string -> ('a, unit, string, unit) format4 -> 'a
val error : ?component:string -> ('a, unit, string, unit) format4 -> 'a

val with_capture : ?level:level -> (unit -> 'a) -> 'a * record list
