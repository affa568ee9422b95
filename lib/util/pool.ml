(* Work pool on OCaml 5 domains. A fixed set of worker domains blocks on a
   task deque; [map] pushes one drain task per worker, and the submitting
   domain drains items alongside them, one item at a time. Results land in
   a pre-sized slot array indexed by item position, which is what makes
   the returned order independent of the completion order. *)

type batch_state = {
  b_mutex : Mutex.t; (* guards next/completed/exn of this batch *)
  mutable b_next : int; (* next item index to hand out *)
  mutable b_completed : int;
  (* lowest-index failure so that which exception surfaces does not depend
     on the domain schedule *)
  mutable b_exn : (int * exn * Printexc.raw_backtrace) option;
  b_done : Condition.t; (* signalled when every item has completed *)
}

type t = {
  n_jobs : int;
  mutex : Mutex.t; (* guards tasks/stopped *)
  work : Condition.t;
  tasks : (unit -> unit) Queue.t;
  mutable stopped : bool;
  mutable workers : unit Domain.t list;
}

(* Set in every worker domain: a [map] issued from inside a job must not
   block on the pool it is running on, so nested submits execute inline. *)
let in_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let default_jobs () = Domain.recommended_domain_count ()

(* Every task here is CPU-bound, so domains beyond the recommended count
   only add GC-barrier and scheduling overhead (on a single-CPU container,
   --jobs 4 would timeshare one core and run *slower* than serial). *)
let clamp_jobs jobs = max 1 (min (default_jobs ()) jobs)

let worker_loop pool =
  Domain.DLS.set in_worker true;
  let rec next () =
    Mutex.lock pool.mutex;
    let rec wait () =
      if pool.stopped then begin
        Mutex.unlock pool.mutex;
        None
      end
      else
        match Queue.take_opt pool.tasks with
        | Some task ->
          Mutex.unlock pool.mutex;
          Some task
        | None ->
          Condition.wait pool.work pool.mutex;
          wait ()
    in
    match wait () with
    | None -> ()
    | Some task ->
      task ();
      next ()
  in
  next ()

let create ?jobs () =
  (* Results are submission-ordered and deterministic either way, so the
     clamp is observable only as wall-clock. *)
  let n_jobs = clamp_jobs (Option.value jobs ~default:(default_jobs ())) in
  let pool =
    {
      n_jobs;
      mutex = Mutex.create ();
      work = Condition.create ();
      tasks = Queue.create ();
      stopped = false;
      workers = [];
    }
  in
  pool.workers <-
    List.init (n_jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop pool));
  pool

let jobs t = t.n_jobs

let serial_map f items = Array.init (Array.length items) (fun i -> f items.(i))

let map t f items =
  let n = Array.length items in
  if n = 0 then [||]
  else if t.n_jobs <= 1 || n = 1 || Domain.DLS.get in_worker then
    (* serial / nested path: run inline, in order, in this domain *)
    serial_map f items
  else begin
    if t.stopped then invalid_arg "Pool.map: pool is shut down";
    let results = Array.make n None in
    let batch =
      {
        b_mutex = Mutex.create ();
        b_next = 0;
        b_completed = 0;
        b_exn = None;
        b_done = Condition.create ();
      }
    in
    let take () =
      Mutex.lock batch.b_mutex;
      let i = batch.b_next in
      let r = if i < n then (batch.b_next <- i + 1; Some i) else None in
      Mutex.unlock batch.b_mutex;
      r
    in
    let run_item i =
      let failure =
        match results.(i) <- Some (f items.(i)) with
        | () -> None
        | exception e -> Some (i, e, Printexc.get_raw_backtrace ())
      in
      Mutex.lock batch.b_mutex;
      (match (failure, batch.b_exn) with
      | Some (i, _, _), Some (j, _, _) when j <= i -> ()
      | Some _, _ -> batch.b_exn <- failure
      | None, _ -> ());
      batch.b_completed <- batch.b_completed + 1;
      if batch.b_completed = n then Condition.broadcast batch.b_done;
      Mutex.unlock batch.b_mutex
    in
    let drain () =
      let rec go () =
        match take () with
        | Some i ->
          run_item i;
          go ()
        | None -> ()
      in
      go ()
    in
    (* one drain task per worker; a task arriving after the batch is spent
       finds no item and exits immediately *)
    Mutex.lock t.mutex;
    for _ = 2 to min t.n_jobs n do
      Queue.add drain t.tasks
    done;
    Condition.broadcast t.work;
    Mutex.unlock t.mutex;
    (* the submitter works too, then waits out any straggler items *)
    drain ();
    Mutex.lock batch.b_mutex;
    while batch.b_completed < n do
      Condition.wait batch.b_done batch.b_mutex
    done;
    Mutex.unlock batch.b_mutex;
    match batch.b_exn with
    | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
    | None ->
      Array.map (function Some v -> v | None -> assert false) results
  end

let map_list t f l = Array.to_list (map t f (Array.of_list l))
let run t thunks = map_list t (fun thunk -> thunk ()) thunks

let shutdown t =
  Mutex.lock t.mutex;
  t.stopped <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.mutex;
  let ws = t.workers in
  t.workers <- [];
  List.iter Domain.join ws

let with_pool ?jobs f =
  let pool = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)
