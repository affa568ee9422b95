(* Branch direction predictor: gshare with 2-bit saturating counters and
   per-thread global history. Irregular applications' data-dependent branches
   are exactly what this mispredicts, which is the serial baseline's pain. *)

type t = {
  table : int array; (* 2-bit counters, initialized weakly taken *)
  mask : int;
  history_mask : int;
  mutable histories : int array; (* per thread *)
  mutable lookups : int;
  mutable mispredicts : int;
}

let create ~entries ~history_bits ~n_threads =
  {
    table = Array.make entries 2;
    mask = entries - 1;
    history_mask = (1 lsl history_bits) - 1;
    histories = Array.make n_threads 0;
    lookups = 0;
    mispredicts = 0;
  }

(* Back to the state [create] builds, for [n_threads] threads. *)
let reset t ~n_threads =
  Array.fill t.table 0 (Array.length t.table) 2;
  if Array.length t.histories = n_threads then Array.fill t.histories 0 n_threads 0
  else t.histories <- Array.make n_threads 0;
  t.lookups <- 0;
  t.mispredicts <- 0

(* Predict-and-update in one step (trace-driven: the actual outcome is
   known). Returns whether the prediction was correct. *)
let predict_update t ~thread ~pc ~taken =
  let h = t.histories.(thread) in
  let idx = (pc lxor h) land t.mask in
  let ctr = t.table.(idx) in
  let predicted_taken = ctr >= 2 in
  t.lookups <- t.lookups + 1;
  let correct = predicted_taken = taken in
  if not correct then t.mispredicts <- t.mispredicts + 1;
  t.table.(idx) <- (if taken then Int.min 3 (ctr + 1) else Int.max 0 (ctr - 1));
  t.histories.(thread) <- ((h lsl 1) lor (if taken then 1 else 0)) land t.history_mask;
  correct

let mispredict_rate t =
  if t.lookups = 0 then 0.0 else float_of_int t.mispredicts /. float_of_int t.lookups
