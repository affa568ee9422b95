(* Bounded FIFO memo table. One mutex guards the table, the insertion-order
   queue and the counters; taking it on every call is also what publishes
   a value added on one domain to readers on another. *)

type ('k, 'v) t = {
  lock : Mutex.t;
  landed : Condition.t; (* broadcast whenever a [find_or_add] build ends *)
  building : ('k, unit) Hashtbl.t; (* keys a [find_or_add] is building *)
  tbl : ('k, 'v) Hashtbl.t;
  order : ('k * int) Queue.t; (* insertion order, with each entry's weight *)
  weigh : 'v -> int;
  mutable capacity : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable weight : int;
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  capacity : int;
  weight : int;
}

let check_capacity fn n =
  if n < 1 then invalid_arg (fn ^ ": capacity must be >= 1")

let create ?(weight = fun _ -> 0) ~capacity () =
  check_capacity "Fifo_cache.create" capacity;
  {
    lock = Mutex.create ();
    landed = Condition.create ();
    building = Hashtbl.create 1;
    (* 16, not more: a larger initial table measurably raises a sweep's
       peak RSS through GC pacing *)
    tbl = Hashtbl.create 16;
    order = Queue.create ();
    weigh = weight;
    capacity;
    hits = 0;
    misses = 0;
    evictions = 0;
    weight = 0;
  }

(* Evict oldest-first until at most [n] entries remain. Caller holds the
   lock. *)
let trim (t : (_, _) t) n =
  while Queue.length t.order > n do
    let k, w = Queue.pop t.order in
    Hashtbl.remove t.tbl k;
    t.weight <- t.weight - w;
    t.evictions <- t.evictions + 1
  done

let find (t : (_, _) t) k =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.tbl k with
      | Some _ as v ->
        t.hits <- t.hits + 1;
        v
      | None ->
        t.misses <- t.misses + 1;
        None)

(* Caller holds the lock. *)
let insert (t : (_, _) t) k v =
  if not (Hashtbl.mem t.tbl k) then begin
    trim t (t.capacity - 1);
    let w = t.weigh v in
    Queue.push (k, w) t.order;
    Hashtbl.add t.tbl k v;
    t.weight <- t.weight + w
  end

let add (t : (_, _) t) k v = Mutex.protect t.lock (fun () -> insert t k v)

(* Single flight: the first caller to miss [k] builds it outside the lock
   while later callers for [k] wait on [landed] and then count a hit. A
   build that raises caches nothing and wakes its waiters, and each of them
   retries: the first to miss becomes the next builder. *)
let find_or_add (t : (_, _) t) k build =
  let rec claim () =
    match Hashtbl.find_opt t.tbl k with
    | Some _ as v ->
      t.hits <- t.hits + 1;
      v
    | None when Hashtbl.mem t.building k ->
      Condition.wait t.landed t.lock;
      claim ()
    | None ->
      t.misses <- t.misses + 1;
      Hashtbl.replace t.building k ();
      None
  in
  match Mutex.protect t.lock claim with
  | Some v -> v
  | None -> (
    let finish f =
      Mutex.protect t.lock (fun () ->
          f ();
          Hashtbl.remove t.building k;
          Condition.broadcast t.landed)
    in
    match build () with
    | v ->
      finish (fun () -> insert t k v);
      v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      finish ignore;
      Printexc.raise_with_backtrace e bt)

let set_capacity (t : (_, _) t) n =
  check_capacity "Fifo_cache.set_capacity" n;
  Mutex.protect t.lock (fun () ->
      t.capacity <- n;
      trim t n)

let clear (t : (_, _) t) =
  Mutex.protect t.lock (fun () ->
      Hashtbl.reset t.tbl;
      Queue.clear t.order;
      t.hits <- 0;
      t.misses <- 0;
      t.evictions <- 0;
      t.weight <- 0)

let stats (t : (_, _) t) =
  Mutex.protect t.lock (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        entries = Hashtbl.length t.tbl;
        capacity = t.capacity;
        weight = t.weight;
      })
