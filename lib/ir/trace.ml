(* Micro-op traces produced by the functional interpreter and consumed by the
   Pipette timing engine.

   Each thread (pipeline stage) gets a linear trace of executed micro-ops.
   Every op records its kind, up to two payload fields, and up to three
   intra-thread data dependencies (indices of earlier ops in the same trace).
   Cross-thread dependencies are expressed through queue sequence numbers:
   the i-th dequeue of queue q anywhere matches the i-th enqueue of q. *)

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

(* Columns are [Bytes] holding fixed-width native-endian fields: the GC
   neither scans them nor charges them to the major heap's pace beyond
   their size. These primitives read and write one field with no bounds
   check and no boxing; declared here as externals, they stay primitives in
   every module that names them. Checked reads use [Bytes.get_int32_ne] and
   [Bytes.get_int64_ne], which are the same loads with a bounds check. *)
external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* Field widths. A thread op is [kind] 1 B (unsigned), [pa] 8 B, and [pb]
   and [dep1]-[dep3] 4 B each (signed); an RA event is [in_seq] and
   [out_seq] 4 B each (signed) and [addr] 8 B. The 8-byte fields hold any
   OCaml int. A value that does not fit a narrower field raises
   [Invalid_argument] naming the column; nothing is ever stored wrapped.
   An op index reaches a column only as a dependence, so a trace longer
   than 2^31 ops fails at the first dependence on an op beyond that. *)
let op_bytes = 25
let ra_event_bytes = 16

let out_of_range fn col v =
  invalid_arg (Printf.sprintf "Trace.%s: %s %d does not fit its column" fn col v)

(* [v + 2^31] lies in [0, 2^32) exactly when [v] fits a signed 32-bit
   field, including when the addition wraps: a wrapped sum is negative. *)
let bias32 = 0x8000_0000
let[@inline] fits32 v = (v + bias32) lsr 32 = 0

(* The six columns of a thread trace grow together and share one length:
   [push] writes each op's fields exactly once, and the timing engine reads
   the columns in place over [0, length). Until [seal], bytes beyond
   [length] ops are growth slack, never read; [seal] trims every column to
   exactly [length] ops. A finished trace is read-only, so replays on
   several domains share it once a memo table has published it. *)
type thread_trace = {
  mutable kind : Bytes.t;
  mutable pa : Bytes.t;
  mutable pb : Bytes.t;
  mutable dep1 : Bytes.t;
  mutable dep2 : Bytes.t;
  mutable dep3 : Bytes.t;
  mutable len : int;
}

let initial_capacity = 1024

let create_thread () =
  let col w = Bytes.create (w * initial_capacity) in
  { kind = col 1; pa = col 8; pb = col 4; dep1 = col 4; dep2 = col 4; dep3 = col 4; len = 0 }

let length t = t.len

let[@inline never] op_too_wide ~kind ~pb ~dep1 ~dep2 ~dep3 =
  if kind lsr 8 <> 0 then out_of_range "push" "kind" kind;
  List.iter
    (fun (col, v) -> if not (fits32 v) then out_of_range "push" col v)
    [ ("pb", pb); ("dep1", dep1); ("dep2", dep2); ("dep3", dep3) ];
  assert false

(* Append an op; returns its index (the token consumers depend on). *)
let push t ~kind ~pa ~pb ~dep1 ~dep2 ~dep3 =
  (* One test covers every narrowed field: the OR of the four biased
     32-bit fields has a bit at or above 32 exactly when one of them does
     not fit. *)
  if
    kind lsr 8
    lor (((pb + bias32) lor (dep1 + bias32) lor (dep2 + bias32) lor (dep3 + bias32)) lsr 32)
    <> 0
  then op_too_wide ~kind ~pb ~dep1 ~dep2 ~dep3;
  let idx = t.len in
  if idx = Bytes.length t.kind then begin
    (* double every column, keeping the [idx] ops written so far *)
    t.kind <- Bytes.extend t.kind 0 idx;
    t.pa <- Bytes.extend t.pa 0 (8 * idx);
    t.pb <- Bytes.extend t.pb 0 (4 * idx);
    t.dep1 <- Bytes.extend t.dep1 0 (4 * idx);
    t.dep2 <- Bytes.extend t.dep2 0 (4 * idx);
    t.dep3 <- Bytes.extend t.dep3 0 (4 * idx)
  end;
  (* [idx] < capacity, the common length of all six columns in ops *)
  Bytes.unsafe_set t.kind idx (Char.unsafe_chr kind);
  set64u t.pa (8 * idx) (Int64.of_int pa);
  set32u t.pb (4 * idx) (Int32.of_int pb);
  set32u t.dep1 (4 * idx) (Int32.of_int dep1);
  set32u t.dep2 (4 * idx) (Int32.of_int dep2);
  set32u t.dep3 (4 * idx) (Int32.of_int dep3);
  t.len <- idx + 1;
  idx

(* One reference-accelerator event: the RA consumed input sequence [in_seq]
   from its input queue and will deliver output sequence [out_seq] into its
   output queue ([out_seq] < 0: consume-only, nothing delivered). [addr] < 0
   means a pass-through (control value or scan boundary) with no memory
   access. The columns grow, share a length and are sealed like a thread
   trace's. *)
type ra_trace = {
  mutable rt_in_seq : Bytes.t;
  mutable rt_out_seq : Bytes.t;
  mutable rt_addr : Bytes.t;
  mutable rt_len : int;
}

let ra_initial_capacity = 256

let create_ra () =
  let col w = Bytes.create (w * ra_initial_capacity) in
  { rt_in_seq = col 4; rt_out_seq = col 4; rt_addr = col 8; rt_len = 0 }

let ra_length r = r.rt_len

let ra_push r ~in_seq ~out_seq ~addr =
  if not (fits32 in_seq) then out_of_range "ra_push" "in_seq" in_seq;
  if not (fits32 out_seq) then out_of_range "ra_push" "out_seq" out_seq;
  let idx = r.rt_len in
  if 4 * idx = Bytes.length r.rt_in_seq then begin
    r.rt_in_seq <- Bytes.extend r.rt_in_seq 0 (4 * idx);
    r.rt_out_seq <- Bytes.extend r.rt_out_seq 0 (4 * idx);
    r.rt_addr <- Bytes.extend r.rt_addr 0 (8 * idx)
  end;
  set32u r.rt_in_seq (4 * idx) (Int32.of_int in_seq);
  set32u r.rt_out_seq (4 * idx) (Int32.of_int out_seq);
  set64u r.rt_addr (8 * idx) (Int64.of_int addr);
  r.rt_len <- idx + 1

(* A full program trace: one thread trace per stage (indexed by stage
   position), one RA trace per reference accelerator, and the number of
   queues the sequence numbers refer to. *)
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

(* Trim every column to its length, once, when the execution that wrote
   the trace is over: nothing pushes to a sealed trace, and a memoized
   trace then costs exactly [bytes]. *)
let seal t =
  let trim b n = if Bytes.length b = n then b else Bytes.sub b 0 n in
  Array.iter
    (fun th ->
      let n = th.len in
      th.kind <- trim th.kind n;
      th.pa <- trim th.pa (8 * n);
      th.pb <- trim th.pb (4 * n);
      th.dep1 <- trim th.dep1 (4 * n);
      th.dep2 <- trim th.dep2 (4 * n);
      th.dep3 <- trim th.dep3 (4 * n))
    t.threads;
  Array.iter
    (fun r ->
      let n = r.rt_len in
      r.rt_in_seq <- trim r.rt_in_seq (4 * n);
      r.rt_out_seq <- trim r.rt_out_seq (4 * n);
      r.rt_addr <- trim r.rt_addr (8 * n))
    t.ras

(* Bytes held by the trace's columns: [op_bytes * op_count] plus
   [ra_event_bytes] per RA event once sealed. *)
let bytes t =
  Array.fold_left
    (fun acc th ->
      acc + Bytes.length th.kind + Bytes.length th.pa + Bytes.length th.pb
      + Bytes.length th.dep1 + Bytes.length th.dep2 + Bytes.length th.dep3)
    0 t.threads
  + Array.fold_left
      (fun acc r ->
        acc + Bytes.length r.rt_in_seq + Bytes.length r.rt_out_seq + Bytes.length r.rt_addr)
      0 t.ras
