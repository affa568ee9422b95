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
(** Counts a hit or a miss. *)

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert if [k] is absent, evicting oldest-first to stay within the
    capacity; if [k] is present the cache is unchanged (concurrent
    identical misses both compute, and the second insert is dropped). *)

val find_or_add : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
(** [find_or_add t k build] is [k]'s value, calling [build] (outside the
    lock) and inserting its result on a miss. Each key is built at most
    once at a time: a concurrent call for a key being built waits for that
    build and counts a hit. A [build] that raises caches nothing and wakes
    its waiters, which retry; the exception reaches its own caller only.
    [build] must not call [find_or_add] on the same key. *)

val set_capacity : ('k, 'v) t -> int -> unit
(** Set the entry bound. Shrinking evicts oldest-first immediately, so the
    bound always holds. @raise Invalid_argument if the capacity is < 1. *)

val clear : ('k, 'v) t -> unit
(** Drop every entry and zero the counters; the capacity is kept. *)

val stats : ('k, 'v) t -> stats
