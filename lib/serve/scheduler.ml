(* Bounded job queue with per-client round-robin fairness. Each client has
   its own FIFO; a rotation queue holds the ids of clients with pending
   work, each at most once. [take] pops the head client's next job and
   sends that client to the back of the rotation, so a client streaming
   hundreds of requests cannot starve one submitting a single job —
   dispatch order interleaves clients no matter the arrival order. The
   total bound is global: when [queued = limit] a submit is shed (explicit
   backpressure), never blocked or dropped silently. Any number of takers
   may block in [take] at once; each submit wakes one of them.

   Every job is stamped at submit time so queue-wait — the interval between
   enqueue and take — is measured per job and aggregated in [stats];
   it is the service-level signal that separates "the simulator is slow"
   from "the queue is deep". *)

type 'a t = {
  mutex : Mutex.t;
  nonempty : Condition.t; (* signalled on submit and on close *)
  queues : (int, ('a * float) Queue.t) Hashtbl.t; (* job, enqueue time *)
  rotation : int Queue.t; (* client ids with pending jobs, each once *)
  limit : int;
  clock : unit -> float;
  mutable queued : int;
  mutable closed : bool;
  mutable accepted : int;
  mutable dispatched : int;
  mutable wait_total : float; (* summed queue-wait of dispatched jobs *)
  mutable wait_max : float;
}

type shed_info = { sh_queued : int; sh_limit : int }

type stats = {
  st_accepted : int;
  st_dispatched : int;
  st_queued : int;
  st_limit : int;
  st_wait_total_s : float;
  st_wait_max_s : float;
}

let create ?(limit = 64) ?(clock = Phloem_util.Clock.now) () =
  if limit < 0 then invalid_arg "Serve.Scheduler.create: negative limit";
  {
    mutex = Mutex.create ();
    nonempty = Condition.create ();
    queues = Hashtbl.create 16;
    rotation = Queue.create ();
    limit;
    clock;
    queued = 0;
    closed = false;
    accepted = 0;
    dispatched = 0;
    wait_total = 0.0;
    wait_max = 0.0;
  }

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let submit t ~client job =
  with_lock t (fun () ->
      if t.closed || t.queued >= t.limit then
        Error { sh_queued = t.queued; sh_limit = t.limit }
      else begin
        let q =
          match Hashtbl.find_opt t.queues client with
          | Some q -> q
          | None ->
            let q = Queue.create () in
            Hashtbl.add t.queues client q;
            q
        in
        if Queue.is_empty q then Queue.push client t.rotation;
        Queue.push (job, t.clock ()) q;
        t.queued <- t.queued + 1;
        t.accepted <- t.accepted + 1;
        Condition.signal t.nonempty;
        Ok ()
      end)

(* One job from the client at the head of the rotation; the client re-enters
   the rotation's tail while it still has pending work. *)
let take t =
  with_lock t (fun () ->
      while t.queued = 0 && not t.closed do
        Condition.wait t.nonempty t.mutex
      done;
      match Queue.take_opt t.rotation with
      | None -> None (* closed and drained: the taker's exit signal *)
      | Some client ->
        let q = Hashtbl.find t.queues client in
        let job, enq = Queue.pop q in
        if not (Queue.is_empty q) then Queue.push client t.rotation;
        t.queued <- t.queued - 1;
        t.dispatched <- t.dispatched + 1;
        (* the default clock is monotonic; an injected one may step back *)
        let wait = Float.max 0.0 (t.clock () -. enq) in
        t.wait_total <- t.wait_total +. wait;
        if wait > t.wait_max then t.wait_max <- wait;
        Some (job, wait))

let close t =
  with_lock t (fun () ->
      t.closed <- true;
      Condition.broadcast t.nonempty)

let queued t = with_lock t (fun () -> t.queued)

let stats t =
  with_lock t (fun () ->
      {
        st_accepted = t.accepted;
        st_dispatched = t.dispatched;
        st_queued = t.queued;
        st_limit = t.limit;
        st_wait_total_s = t.wait_total;
        st_wait_max_s = t.wait_max;
      })
