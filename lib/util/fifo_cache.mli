(** A bounded, mutex-guarded memo table with FIFO eviction and hit / miss /
    eviction / weight counters. Any domain or thread may call any function:
    every operation runs under the cache's lock, which also publishes a
    value added on one domain to readers on another. *)

type ('k, 'v) t

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;  (** entries currently resident *)
  capacity : int;  (** entry bound *)
  weight : int;  (** sum of the resident entries' weights *)
}

val create : ?weight:('v -> int) -> capacity:int -> unit -> ('k, 'v) t
(** An empty cache holding at most [capacity] entries. [weight] (default
    [fun _ -> 0]) is applied once per inserted value; {!stats} reports the
    sum over resident entries.
    @raise Invalid_argument if [capacity < 1]. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** [k]'s resident value. Counts nothing: the counters are
    {!find_or_add}'s. *)

val find_or_add : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
(** [find_or_add t k build] is [k]'s value, calling [build] (outside the
    lock) and inserting its result on a miss; an insert evicts oldest-first
    to stay within the capacity. Each key is built at most once at a time:
    a call for a key being built waits for that build and gets its outcome,
    the value or the exception it raised. A call that builds counts a miss;
    a call that finds the value resident or waits on a build counts a hit.
    A [build] that raises caches nothing, so the next call after it lands
    builds again. [build] must not call [find_or_add] on the same key. *)

val set_capacity : ('k, 'v) t -> int -> unit
(** Set the entry bound. Shrinking evicts oldest-first immediately, so the
    bound always holds. @raise Invalid_argument if the capacity is < 1. *)

val clear : ('k, 'v) t -> unit
(** Drop every entry and zero the counters; the capacity is kept. *)

val stats : ('k, 'v) t -> stats
