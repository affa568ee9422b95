(** Growable arrays.

    [Vec.t] is a generic growable array; [Int_vec.t] is an unboxed-int
    specialization, used for reference-accelerator traces and the timing
    engine's per-queue arrival logs. *)

type 'a t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
(** [create ~dummy ()] makes an empty vector. [dummy] fills unused slots. *)

val length : 'a t -> int
val push : 'a t -> 'a -> unit
val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit
val clear : 'a t -> unit
val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val to_list : 'a t -> 'a list
val to_array : 'a t -> 'a array
val of_list : dummy:'a -> 'a list -> 'a t
val last : 'a t -> 'a
(** [last v] is the most recently pushed element. @raise Invalid_argument if empty. *)

val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

module Int_vec : sig
  type t

  val create : ?capacity:int -> unit -> t
  val length : t -> int
  val push : t -> int -> unit
  val get : t -> int -> int
  val to_array : t -> int array
  val fold_left : ('acc -> int -> 'acc) -> 'acc -> t -> 'acc
end
