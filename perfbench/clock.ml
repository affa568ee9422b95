(* Host time on CLOCK_MONOTONIC, in seconds. Every duration the benchmark
   reports is the difference of two readings of this clock. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
