(** Bounded job queue with per-client round-robin fairness and explicit
    backpressure. Each client has its own FIFO; dispatch interleaves
    clients one job per turn, so a chatty client cannot starve a quiet
    one. The bound is global: a submit past it is {e shed} (reported to
    the caller), never blocked or silently dropped. *)

type 'a t

type shed_info = { sh_queued : int; sh_limit : int }

type stats = {
  st_accepted : int;
  st_dispatched : int;
  st_queued : int;
  st_limit : int;
  st_wait_total_s : float;
      (** summed queue-wait (submit to take) of dispatched jobs *)
  st_wait_max_s : float;
}

val create : ?limit:int -> ?clock:(unit -> float) -> unit -> 'a t
(** [limit] (default 64) bounds the total queued jobs across all clients;
    [limit = 0] sheds every submit (useful for tests and drain mode).
    [clock] (default {!Phloem_util.Clock.now}) stamps jobs at submit time
    for queue-wait measurement; injectable for deterministic tests, so
    waits are clamped at 0 in case it steps backwards.
    @raise Invalid_argument on a negative limit. *)

val submit : 'a t -> client:int -> 'a -> (unit, shed_info) result
(** Enqueue a job for [client], or shed it when the queue is full or the
    scheduler is closed. Never blocks. *)

val take : 'a t -> ('a * float) option
(** Block until a job is available (or the scheduler is closed), then pop
    the next job round-robin across clients, with its queue-wait in
    seconds (take time minus submit time, clamped at 0). [None] means
    closed and fully drained — the taker's exit signal. Any number of
    threads or domains may take concurrently. *)

val close : 'a t -> unit
(** Stop accepting submits (they shed) and wake blocked takers; already
    queued jobs still drain through {!take}. *)

val queued : 'a t -> int
val stats : 'a t -> stats
