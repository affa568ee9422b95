(** Fixed-size work pool on OCaml 5 domains for embarrassingly parallel
    sweeps (the harness's variant x input simulation jobs, the compiler's
    candidate-cut profiling).

    Determinism contract: [map] returns results in submission order
    regardless of completion order, and every job must itself be a
    deterministic function of its input — under that contract a pooled
    sweep produces byte-identical output to the serial one. When several
    jobs raise, the exception of the lowest-index job is re-raised (with
    its backtrace), so failure surfacing is deterministic too.

    [create ~jobs:1] spawns no domains: every [map]/[run] executes the
    jobs inline in the calling domain, in order — exactly the serial path.
    Calling [map] from inside a pool job (a nested submit) is supported
    and also runs inline in the worker, which cannot deadlock. *)

type t

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val clamp_jobs : int -> int
(** [clamp_jobs n] is [n] clamped to the range [1 .. default_jobs ()]: the
    number of domains worth running for CPU-bound work, since domains
    beyond the recommended count only add GC-barrier and scheduling
    overhead. *)

val create : ?jobs:int -> unit -> t
(** [create ~jobs ()] makes a pool of [clamp_jobs jobs] domains total:
    one fewer worker domains are spawned, and the submitting domain
    participates in every batch. [jobs] defaults to [default_jobs ()].
    Use {!jobs} to observe the effective size. *)

val jobs : t -> int
(** Total domain count (workers + the submitting caller). *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map pool f items] applies [f] to every element, fanning the work out
    across the pool's domains one item at a time, and returns the results
    in submission order. Blocks until the whole batch is done. If any job
    raised, the batch still runs to completion and the lowest-index
    exception is re-raised. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map] over a list, preserving order. *)

val run : t -> (unit -> 'a) list -> 'a list
(** [run pool thunks] executes independent thunks across the pool and
    returns their results in the thunks' order. *)

val shutdown : t -> unit
(** Joins the worker domains. Idempotent. Using the pool afterwards raises
    [Invalid_argument]; jobs already inline (jobs = 1) are unaffected. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [with_pool f] runs [f] with a fresh pool and always shuts it down. *)
