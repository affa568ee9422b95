(* Cache hierarchy timing model: per-core L1 and L2, shared L3, and DRAM with
   per-controller bandwidth occupancy. Set-associative with true-LRU ranking;
   inclusive fills on miss. Prefetched lines carry an availability time so a
   demand access shortly after a prefetch pays the remaining latency only. *)

type access_result = { latency : int; level_hit : int (* 1..3, 4 = DRAM *) }

type level = {
  sets : int;
  set_mask : int; (* sets - 1 when sets is a power of two, else -1 *)
  ways : int;
  latency : int;
  hit : access_result; (* what a demand hit here returns, built once *)
  tags : int array; (* set * ways; -1 = invalid *)
  lru : int array; (* recency stamp per way *)
  mutable stamp : int;
  mutable hits : int;
  mutable misses : int;
}

let make_level (p : Config.cache_params) ~level ~line_bytes ~size_scale =
  let bytes = p.size_kb * 1024 * size_scale in
  let sets = Int.max 1 (bytes / (line_bytes * p.ways)) in
  {
    sets;
    set_mask = (if sets land (sets - 1) = 0 then sets - 1 else -1);
    ways = p.ways;
    latency = p.latency;
    hit = { latency = p.latency; level_hit = level };
    tags = Array.make (sets * p.ways) (-1);
    lru = Array.make (sets * p.ways) 0;
    stamp = 0;
    hits = 0;
    misses = 0;
  }

type dram = {
  min_latency : int;
  cycles_per_line : int;
  next_free : int array; (* per controller *)
  mutable accesses : int;
}

type t = {
  line_shift : int;
  l1s : level array; (* per core *)
  l2s : level array; (* per core *)
  l3 : level;
  dram : dram;
  inflight : (int, int) Hashtbl.t; (* line -> availability time *)
  (* Prefetches are accounted separately so the per-level hit/miss counters
     and [dram.accesses] stay demand-only. *)
  mutable prefetches_issued : int;
  mutable prefetch_hits : int; (* line was already resident in some level *)
  mutable prefetch_dram : int; (* prefetch fills that went to DRAM *)
}

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n / 2) in
  go 0 n

let create (cfg : Config.t) =
  let mk p level scale =
    make_level p ~level ~line_bytes:cfg.line_bytes ~size_scale:scale
  in
  {
    line_shift = log2 cfg.line_bytes;
    l1s = Array.init cfg.n_cores (fun _ -> mk cfg.l1 1 1);
    l2s = Array.init cfg.n_cores (fun _ -> mk cfg.l2 2 1);
    l3 = mk cfg.l3 3 cfg.n_cores;
    dram =
      {
        min_latency = cfg.dram_latency;
        cycles_per_line = cfg.dram_cycles_per_line;
        next_free = Array.make cfg.dram_controllers 0;
        accesses = 0;
      };
    inflight = Hashtbl.create 64;
    prefetches_issued = 0;
    prefetch_hits = 0;
    prefetch_dram = 0;
  }

(* Back to the empty state [create] builds: no line in any level, idle
   DRAM controllers, nothing in flight, every counter zero. *)
let reset_level l =
  Array.fill l.tags 0 (Array.length l.tags) (-1);
  Array.fill l.lru 0 (Array.length l.lru) 0;
  l.stamp <- 0;
  l.hits <- 0;
  l.misses <- 0

let reset t =
  Array.iter reset_level t.l1s;
  Array.iter reset_level t.l2s;
  reset_level t.l3;
  Array.fill t.dram.next_free 0 (Array.length t.dram.next_free) 0;
  t.dram.accesses <- 0;
  Hashtbl.reset t.inflight;
  t.prefetches_issued <- 0;
  t.prefetch_hits <- 0;
  t.prefetch_dram <- 0

let set_base lvl line =
  let set =
    (* the set count is a power of two for every realistic geometry; mask
       instead of paying an integer division on the hot lookup path *)
    if lvl.set_mask >= 0 then line land lvl.set_mask else line mod lvl.sets
  in
  set * lvl.ways

(* The way of the set at [base] that holds [line], or -1. [set < sets] and
   [w < ways], so [base + w] is always within the [sets * ways] arrays:
   unchecked indexing on the per-access loops. *)
let rec find_way lvl base line w =
  if w >= lvl.ways then -1
  else if Array.unsafe_get lvl.tags (base + w) = line then w
  else find_way lvl base line (w + 1)

(* Look a line up in a level without touching its hit/miss counters; on a
   hit, refresh LRU and return true. *)
let probe lvl line =
  let base = set_base lvl line in
  let w = find_way lvl base line 0 in
  if w >= 0 then begin
    lvl.stamp <- lvl.stamp + 1;
    Array.unsafe_set lvl.lru (base + w) lvl.stamp
  end;
  w >= 0

(* A demand lookup: [probe] plus the level's hit/miss counters. *)
let lookup lvl line =
  let hit = probe lvl line in
  if hit then lvl.hits <- lvl.hits + 1 else lvl.misses <- lvl.misses + 1;
  hit

(* Insert a line, evicting the LRU way. *)
let insert lvl line =
  let base = set_base lvl line in
  let victim = ref 0 in
  for w = 1 to lvl.ways - 1 do
    if
      Array.unsafe_get lvl.lru (base + w)
      < Array.unsafe_get lvl.lru (base + !victim)
    then victim := w
  done;
  lvl.stamp <- lvl.stamp + 1;
  Array.unsafe_set lvl.tags (base + !victim) line;
  Array.unsafe_set lvl.lru (base + !victim) lvl.stamp

(* Occupy a DRAM controller slot and return the transfer latency, without
   touching the demand access counter (prefetch fills share the same
   bandwidth but are counted separately). *)
let dram_occupy d line ~now =
  let ctrl = line mod Array.length d.next_free in
  let start = Int.max now d.next_free.(ctrl) in
  d.next_free.(ctrl) <- start + d.cycles_per_line;
  start - now + d.min_latency

let dram_access d line ~now =
  d.accesses <- d.accesses + 1;
  dram_occupy d line ~now

(* A demand access from [core] at cycle [now]. Fills all levels on the way
   back (inclusive). Returns the load-to-use latency; a cache hit returns
   the level's shared result, so only a DRAM access or a wait on an
   in-flight prefetch allocates. *)
let access t ~core ~addr ~now =
  let line = addr lsr t.line_shift in
  let l1 = t.l1s.(core) and l2 = t.l2s.(core) in
  let base_lat =
    if lookup l1 line then l1.hit
    else if lookup l2 line then begin
      insert l1 line;
      l2.hit
    end
    else if lookup t.l3 line then begin
      insert l2 line;
      insert l1 line;
      t.l3.hit
    end
    else begin
      let lat = dram_access t.dram line ~now in
      insert t.l3 line;
      insert l2 line;
      insert l1 line;
      { latency = Int.max lat t.l3.latency; level_hit = 4 }
    end
  in
  (* If the line is still in flight from a prefetch, wait for its arrival.
     Most runs prefetch nothing, so skip the lookup on an empty table. *)
  if Hashtbl.length t.inflight = 0 then base_lat
  else
    match Hashtbl.find_opt t.inflight line with
    | Some avail when avail > now ->
      { base_lat with latency = Int.max base_lat.latency (avail - now) }
    | Some _ ->
      Hashtbl.remove t.inflight line;
      base_lat
    | None -> base_lat

(* Bring a line into every level without touching any demand or prefetch
   counter — the "no-op that still fills". Returns the fill latency and
   whether the line was already resident in some cache level. Replacement
   state changes exactly as it would for a demand access to the same line. *)
let fill t ~core ~addr ~now =
  let line = addr lsr t.line_shift in
  let l1 = t.l1s.(core) and l2 = t.l2s.(core) in
  if probe l1 line then (l1.latency, true)
  else if probe l2 line then begin
    insert l1 line;
    (l2.latency, true)
  end
  else if probe t.l3 line then begin
    insert l2 line;
    insert l1 line;
    (t.l3.latency, true)
  end
  else begin
    let lat = dram_occupy t.dram line ~now in
    insert t.l3 line;
    insert l2 line;
    insert l1 line;
    (Int.max lat t.l3.latency, false)
  end

(* A software/compiler prefetch: brings the line in through its own
   lookup/fill path (demand hit/miss and DRAM counters are unaffected) and
   records when it actually arrives, so immediate demand accesses pay the
   residue. *)
let prefetch t ~core ~addr ~now =
  let line = addr lsr t.line_shift in
  t.prefetches_issued <- t.prefetches_issued + 1;
  let latency, resident = fill t ~core ~addr ~now in
  if resident then t.prefetch_hits <- t.prefetch_hits + 1
  else t.prefetch_dram <- t.prefetch_dram + 1;
  if latency > t.l1s.(core).latency then
    Hashtbl.replace t.inflight line (now + latency)

type counters = {
  c_l1_hits : int; (* demand accesses only; prefetches counted separately *)
  c_l1_misses : int;
  c_l2_hits : int;
  c_l2_misses : int;
  c_l3_hits : int;
  c_l3_misses : int;
  c_dram : int;
  c_prefetches : int;
  c_prefetch_hits : int;
  c_prefetch_dram : int;
}

let counters t =
  let sum f arr = Array.fold_left (fun acc l -> acc + f l) 0 arr in
  {
    c_l1_hits = sum (fun l -> l.hits) t.l1s;
    c_l1_misses = sum (fun l -> l.misses) t.l1s;
    c_l2_hits = sum (fun l -> l.hits) t.l2s;
    c_l2_misses = sum (fun l -> l.misses) t.l2s;
    c_l3_hits = t.l3.hits;
    c_l3_misses = t.l3.misses;
    c_dram = t.dram.accesses;
    c_prefetches = t.prefetches_issued;
    c_prefetch_hits = t.prefetch_hits;
    c_prefetch_dram = t.prefetch_dram;
  }
