(** Minimal blocking client for phloemd's line protocol (one request line
    out, one response line back), used by [simulate --remote] and tests. *)

val connect_unix : string -> Unix.file_descr
(** Connect to a Unix-domain socket. @raise Unix.Unix_error on failure. *)

val with_unix : string -> (Unix.file_descr -> 'a) -> 'a
(** Connect, run, always close. *)

val send_line : Unix.file_descr -> string -> unit
(** Write one line (the newline is appended). *)

val recv_line : Unix.file_descr -> string
(** Read one response line, newline stripped. Reads the socket in chunks
    but consumes only through the newline, so later pipelined lines stay
    queued for the next call. [fd] must be a socket.
    @raise End_of_file if the peer hangs up first. *)

val request : Unix.file_descr -> string -> string
(** [send_line] then [recv_line]. *)
