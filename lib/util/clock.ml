(* The one host clock: CLOCK_MONOTONIC through bechamel's [@@noalloc]
   stub, in seconds. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
