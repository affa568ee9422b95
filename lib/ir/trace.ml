(* Micro-op traces produced by the functional interpreter and consumed by the
   Pipette timing engine.

   Each thread (pipeline stage) gets a linear trace of executed micro-ops.
   Every op records its kind, one payload field, and up to three
   intra-thread data dependencies (earlier ops of the same trace).
   Cross-thread dependencies are implicit in program order: the i-th
   dequeue of queue q anywhere matches the i-th enqueue of q, and a
   thread's n-th barrier with a given id meets the n-th barrier with that
   id of every other thread that uses it. Consumers number both while they
   replay or scan; the trace stores neither. *)

(* Op kinds (column [kind]). Payload [pa]:
     alu      : 0
     branch   : site id (PC) [lsl 1], [lor 1] if taken
     load     : byte address
     store    : byte address
     prefetch : byte address
     enq      : queue id
     deq      : queue id
     barrier  : barrier id
     atomic   : byte address *)
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
   every module that names them. Checked reads use [Bytes.get_uint16_ne]
   and [Bytes.get_int32_ne], which are the same loads with a bounds check. *)
external get16u : Bytes.t -> int -> int = "%caml_bytes_get16u"
external set16u : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"
external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

(* Field widths. A thread op is [kind] 1 B (unsigned), [pa] 4 B (signed)
   and [dep1]-[dep3] 2 B each; an RA event is [in_seq], [out_seq] and
   [addr], 4 B each (signed). A [kind] or a 4-byte value that does not fit
   its field raises [Invalid_argument] naming the column; nothing is ever
   stored wrapped.

   A dependence is stored as its unsigned distance back, [i - dep] for op
   [i], with 0 for [no_dep]. A distance of [max_distance] or more is stored
   as [max_distance] and decodes like any other, to an op at least that far
   back: the timing engine's window holds fewer ops than that, so such a
   producer has always retired, and a reader needs nothing more. *)
let op_bytes = 11
let ra_event_bytes = 12
let max_distance = 0xffff

let out_of_range fn col v =
  invalid_arg (Printf.sprintf "Trace.%s: %s %d does not fit its column" fn col v)

(* [v + 2^31] lies in [0, 2^32) exactly when [v] fits a signed 32-bit
   field, including when the addition wraps: a wrapped sum is negative. *)
let bias32 = 0x8000_0000
let[@inline] fits32 v = (v + bias32) lsr 32 = 0

(* Columns are written once, into chunks of [chunk_ops] fields each; [seal]
   copies the chunks once into columns of exactly the trace's length. *)
let chunk_ops = 4096

(* Column [c] of [chunks] (oldest first, each column [chunk_ops] fields of
   [w] bytes, the last chunk part-filled) as one column of exactly [n]
   fields. *)
let join chunks c w n =
  let col = Bytes.create (w * n) and full = w * chunk_ops in
  List.iteri
    (fun k (ch : Bytes.t array) ->
      let off = k * full in
      Bytes.blit ch.(c) 0 col off (Int.min full ((w * n) - off)))
    chunks;
  col

(* The five columns of a thread trace share one length. While the trace is
   written, the column fields hold its newest chunk, op [i] at position
   [i mod chunk_ops], and [filled] the chunks before it; [seal] sets the
   fields to the whole columns, which the timing engine reads in place over
   [0, length). A sealed trace is read-only, so replays on several domains
   share it once a memo table has published it. *)
type thread_trace = {
  mutable kind : Bytes.t;
  mutable pa : Bytes.t;
  mutable dep1 : Bytes.t;
  mutable dep2 : Bytes.t;
  mutable dep3 : Bytes.t;
  mutable len : int;
  mutable filled : Bytes.t array list; (* newest first: [|kind; pa; dep1; dep2; dep3|] *)
  mutable sealed : bool;
}

let create_thread () =
  let e = Bytes.empty in
  { kind = e; pa = e; dep1 = e; dep2 = e; dep3 = e; len = 0; filled = []; sealed = false }

let length t = t.len

(* Cold path of [push]: name the first field that is refused. *)
let[@inline never] op_refused t ~kind ~pa ~dep1 ~dep2 ~dep3 =
  if t.sealed then invalid_arg "Trace.push: the trace is sealed";
  if kind lsr 8 <> 0 then out_of_range "push" "kind" kind;
  if not (fits32 pa) then out_of_range "push" "pa" pa;
  List.iter
    (fun (col, d) ->
      if d < no_dep || d >= t.len then
        invalid_arg
          (Printf.sprintf "Trace.push: %s %d is not an op before op %d" col d t.len))
    [ ("dep1", dep1); ("dep2", dep2); ("dep3", dep3) ];
  assert false

(* Start the next chunk, keeping the full one. *)
let next_chunk t =
  if t.len > 0 then t.filled <- [| t.kind; t.pa; t.dep1; t.dep2; t.dep3 |] :: t.filled;
  t.kind <- Bytes.create chunk_ops;
  t.pa <- Bytes.create (4 * chunk_ops);
  t.dep1 <- Bytes.create (2 * chunk_ops);
  t.dep2 <- Bytes.create (2 * chunk_ops);
  t.dep3 <- Bytes.create (2 * chunk_ops)

let[@inline] distance i dep = if dep = no_dep then 0 else Int.min (i - dep) max_distance

(* Append an op; returns its index (the token consumers depend on). *)
let push t ~kind ~pa ~dep1 ~dep2 ~dep3 =
  let i = t.len in
  (* A dependence [d] is valid when [no_dep <= d < i], that is when both
     [d + 1] and [i - 1 - d] are non-negative (a sum that wraps is
     negative), so one OR of the six decides for all three; [kind] and [pa]
     are tested as in [fits32]. *)
  if
    t.sealed
    || kind lsr 8 lor ((pa + bias32) lsr 32) <> 0
    || (dep1 + 1) lor (i - 1 - dep1) lor (dep2 + 1) lor (i - 1 - dep2) lor (dep3 + 1)
       lor (i - 1 - dep3)
       < 0
  then op_refused t ~kind ~pa ~dep1 ~dep2 ~dep3;
  let pos = i land (chunk_ops - 1) in
  if pos = 0 then next_chunk t;
  (* [pos] < [chunk_ops], the length in fields of every column of the
     current chunk *)
  Bytes.unsafe_set t.kind pos (Char.unsafe_chr kind);
  set32u t.pa (4 * pos) (Int32.of_int pa);
  set16u t.dep1 (2 * pos) (distance i dep1);
  set16u t.dep2 (2 * pos) (distance i dep2);
  set16u t.dep3 (2 * pos) (distance i dep3);
  t.len <- i + 1;
  i

(* One reference-accelerator event: the RA consumed input sequence [in_seq]
   from its input queue and will deliver output sequence [out_seq] into its
   output queue ([out_seq] < 0: consume-only, nothing delivered). [addr] < 0
   means a pass-through (control value or scan boundary) with no memory
   access. The columns are written in chunks and sealed like a thread
   trace's. *)
type ra_trace = {
  mutable rt_in_seq : Bytes.t;
  mutable rt_out_seq : Bytes.t;
  mutable rt_addr : Bytes.t;
  mutable rt_len : int;
  mutable rt_filled : Bytes.t array list; (* newest first: [|in_seq; out_seq; addr|] *)
  mutable rt_sealed : bool;
}

let create_ra () =
  let e = Bytes.empty in
  { rt_in_seq = e; rt_out_seq = e; rt_addr = e; rt_len = 0; rt_filled = []; rt_sealed = false }

let ra_length r = r.rt_len

let ra_push r ~in_seq ~out_seq ~addr =
  if r.rt_sealed then invalid_arg "Trace.ra_push: the trace is sealed";
  if not (fits32 in_seq) then out_of_range "ra_push" "in_seq" in_seq;
  if not (fits32 out_seq) then out_of_range "ra_push" "out_seq" out_seq;
  if not (fits32 addr) then out_of_range "ra_push" "addr" addr;
  let i = r.rt_len in
  let pos = i land (chunk_ops - 1) in
  if pos = 0 then begin
    if i > 0 then r.rt_filled <- [| r.rt_in_seq; r.rt_out_seq; r.rt_addr |] :: r.rt_filled;
    r.rt_in_seq <- Bytes.create (4 * chunk_ops);
    r.rt_out_seq <- Bytes.create (4 * chunk_ops);
    r.rt_addr <- Bytes.create (4 * chunk_ops)
  end;
  set32u r.rt_in_seq (4 * pos) (Int32.of_int in_seq);
  set32u r.rt_out_seq (4 * pos) (Int32.of_int out_seq);
  set32u r.rt_addr (4 * pos) (Int32.of_int addr);
  r.rt_len <- i + 1

(* A full program trace: one thread trace per stage (indexed by stage
   position), one RA trace per reference accelerator, and the number of
   queues the ops refer to. *)
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

(* Copy every column's chunks into one column of exactly its length, once,
   when the execution that wrote the trace is over: nothing pushes to a
   sealed trace, and a memoized trace then costs exactly [bytes]. *)
let seal t =
  Array.iter
    (fun th ->
      if not th.sealed then begin
        let n = th.len in
        let chunks = List.rev ([| th.kind; th.pa; th.dep1; th.dep2; th.dep3 |] :: th.filled) in
        th.kind <- join chunks 0 1 n;
        th.pa <- join chunks 1 4 n;
        th.dep1 <- join chunks 2 2 n;
        th.dep2 <- join chunks 3 2 n;
        th.dep3 <- join chunks 4 2 n;
        th.filled <- [];
        th.sealed <- true
      end)
    t.threads;
  Array.iter
    (fun r ->
      if not r.rt_sealed then begin
        let n = r.rt_len in
        let chunks = List.rev ([| r.rt_in_seq; r.rt_out_seq; r.rt_addr |] :: r.rt_filled) in
        r.rt_in_seq <- join chunks 0 4 n;
        r.rt_out_seq <- join chunks 1 4 n;
        r.rt_addr <- join chunks 2 4 n;
        r.rt_filled <- [];
        r.rt_sealed <- true
      end)
    t.ras

(* Bytes held by a sealed trace's columns: [op_bytes * op_count] plus
   [ra_event_bytes] per RA event. *)
let bytes t =
  Array.fold_left
    (fun acc th ->
      acc + Bytes.length th.kind + Bytes.length th.pa + Bytes.length th.dep1
      + Bytes.length th.dep2 + Bytes.length th.dep3)
    0 t.threads
  + Array.fold_left
      (fun acc r ->
        acc + Bytes.length r.rt_in_seq + Bytes.length r.rt_out_seq + Bytes.length r.rt_addr)
      0 t.ras
