(* Micro-op traces produced by the functional interpreter and consumed by the
   Pipette timing engine.

   Each thread (pipeline stage) gets a linear trace of executed micro-ops.
   Every op records its kind, up to two payload fields, and up to three
   intra-thread data dependencies (indices of earlier ops in the same trace).
   Cross-thread dependencies are expressed through queue sequence numbers:
   the i-th dequeue of queue q anywhere matches the i-th enqueue of q. *)

open Phloem_util

(* Op kinds (column [kind]). Payloads a/b:
     alu      : -
     branch   : a = site id (PC), b = 1 if taken else 0
     load     : a = byte address, b = access size
     store    : a = byte address, b = access size
     prefetch : a = byte address, b = access size
     enq      : a = queue id, b = sequence number
     deq      : a = queue id, b = sequence number
     barrier  : a = barrier id
     atomic   : a = byte address, b = access size *)
let op_alu = 0
let op_branch = 1
let op_load = 2
let op_store = 3
let op_prefetch = 4
let op_enq = 5
let op_deq = 6
let op_barrier = 7
let op_atomic = 8

let no_dep = -1

(* The six columns of a thread trace are plain int arrays that grow together
   and share one length: [push] writes each op's fields exactly once, and
   the timing engine reads the columns in place over [0, length). Slots at
   and beyond [length] are growth slack, never read. A finished trace is
   read-only, so replays on several domains share it once a memo table has
   published it. *)
type thread_trace = {
  mutable kind : int array;
  mutable pa : int array;
  mutable pb : int array;
  mutable dep1 : int array;
  mutable dep2 : int array;
  mutable dep3 : int array;
  mutable len : int;
}

let initial_capacity = 1024

let create_thread () =
  {
    kind = Array.make initial_capacity 0;
    pa = Array.make initial_capacity 0;
    pb = Array.make initial_capacity 0;
    dep1 = Array.make initial_capacity 0;
    dep2 = Array.make initial_capacity 0;
    dep3 = Array.make initial_capacity 0;
    len = 0;
  }

let length t = t.len

(* Copy through an int-typed loop: [Array.blit] into a major-heap array
   takes the generic path, which is slower for int columns. *)
let grow (a : int array) cap =
  let b = Array.make cap 0 in
  for i = 0 to Array.length a - 1 do
    Array.unsafe_set b i (Array.unsafe_get a i)
  done;
  b

(* Append an op; returns its index (the token consumers depend on). *)
let push t ~kind ~pa ~pb ~dep1 ~dep2 ~dep3 =
  let idx = t.len in
  if idx = Array.length t.kind then begin
    let cap = 2 * idx in
    t.kind <- grow t.kind cap;
    t.pa <- grow t.pa cap;
    t.pb <- grow t.pb cap;
    t.dep1 <- grow t.dep1 cap;
    t.dep2 <- grow t.dep2 cap;
    t.dep3 <- grow t.dep3 cap
  end;
  (* [idx] < capacity, the common length of all six columns *)
  Array.unsafe_set t.kind idx kind;
  Array.unsafe_set t.pa idx pa;
  Array.unsafe_set t.pb idx pb;
  Array.unsafe_set t.dep1 idx dep1;
  Array.unsafe_set t.dep2 idx dep2;
  Array.unsafe_set t.dep3 idx dep3;
  t.len <- idx + 1;
  idx

(* One reference-accelerator event: the RA consumed input sequence [in_seq]
   from its input queue and will deliver output sequence [out_seq] into its
   output queue. [addr] < 0 means a pass-through (control value or scan
   boundary) with no memory access. *)
type ra_trace = {
  rt_in_seq : Vec.Int_vec.t;
  rt_out_seq : Vec.Int_vec.t;
  rt_addr : Vec.Int_vec.t;
  rt_size : Vec.Int_vec.t;
}

let create_ra () =
  {
    rt_in_seq = Vec.Int_vec.create ~capacity:256 ();
    rt_out_seq = Vec.Int_vec.create ~capacity:256 ();
    rt_addr = Vec.Int_vec.create ~capacity:256 ();
    rt_size = Vec.Int_vec.create ~capacity:256 ();
  }

let ra_length r = Vec.Int_vec.length r.rt_in_seq

let ra_push r ~in_seq ~out_seq ~addr ~size =
  Vec.Int_vec.push r.rt_in_seq in_seq;
  Vec.Int_vec.push r.rt_out_seq out_seq;
  Vec.Int_vec.push r.rt_addr addr;
  Vec.Int_vec.push r.rt_size size

(* A full program trace: one thread trace per stage (indexed by stage
   position), one RA trace per reference accelerator, and the enqueue
   producer map needed to resolve cross-thread queue dependencies:
   [enq_thread.(q)] gives, for each sequence number, which thread (or RA,
   encoded as [-1 - ra_index]) produced it. *)
type t = {
  threads : thread_trace array;
  ras : ra_trace array;
  n_queues : int;
  mutable total_ops : int;
}

let create ~n_threads ~n_ras ~n_queues =
  {
    threads = Array.init n_threads (fun _ -> create_thread ());
    ras = Array.init n_ras (fun _ -> create_ra ());
    n_queues;
    total_ops = 0;
  }

let op_count t =
  Array.fold_left (fun acc th -> acc + length th) 0 t.threads
