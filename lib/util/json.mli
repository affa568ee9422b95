(** Minimal JSON value type with a writer and a strict parser; no external
    dependencies are available in this tree. Every report, daemon payload
    and benchmark file is written and re-read through this module. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
val to_file : string -> t -> unit

exception Parse_error of string

val of_string : string -> t
(** Parse strict JSON. Numbers without ['.'], ['e'] or ['E'] parse as
    [Int]; others as [Float].
    @raise Parse_error on malformed input. *)

val of_file : string -> t

val member : string -> t -> t option
(** [member k j] is field [k] of object [j], or [None]. *)

val to_float_opt : t -> float option
(** Numeric value of an [Int] or [Float] node. *)
