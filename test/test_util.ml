(* Tests for the utility substrate: vectors, heap, PRNG, stats, tables,
   metrics and the bounded FIFO cache. *)

open Phloem_util

let test_vec_growth () =
  let v = Vec.create ~dummy:0 () in
  for i = 0 to 999 do
    Vec.push v (i * 2)
  done;
  Alcotest.(check int) "length" 1000 (Vec.length v);
  Alcotest.(check int) "get" 998 (Vec.get v 499);
  Vec.set v 499 7;
  Alcotest.(check int) "set" 7 (Vec.get v 499);
  Alcotest.(check int) "last" 1998 (Vec.last v);
  Alcotest.(check int) "fold" (List.init 1000 (fun i -> i * 2) |> List.fold_left ( + ) 0 |> fun s -> s - 998 + 7)
    (Vec.fold_left ( + ) 0 v)

let test_vec_bounds () =
  let v = Vec.of_list ~dummy:0 [ 1; 2; 3 ] in
  Alcotest.check_raises "get oob" (Invalid_argument "Vec.get") (fun () ->
      ignore (Vec.get v 3))

let test_int_vec () =
  let v = Vec.Int_vec.create () in
  for i = 0 to 99 do
    Vec.Int_vec.push v i
  done;
  Alcotest.(check int) "sum" 4950 (Vec.Int_vec.fold_left ( + ) 0 v);
  Alcotest.(check (array int)) "to_array" (Array.init 100 Fun.id) (Vec.Int_vec.to_array v)

let test_heap_sorts () =
  let h = Heap.create () in
  let rng = Prng.create 99 in
  let input = List.init 500 (fun _ -> Prng.int rng 10_000) in
  List.iter (Heap.push h) input;
  let out = List.init 500 (fun _ -> Heap.pop h) in
  Alcotest.(check (list int)) "heap pops sorted" (List.sort compare input) out;
  Alcotest.(check bool) "empty after" true (Heap.is_empty h)

let test_heap_empty () =
  let h = Heap.create () in
  Alcotest.check_raises "pop empty" (Invalid_argument "Heap.pop") (fun () ->
      ignore (Heap.pop h))

let test_prng_deterministic () =
  let a = Prng.create 7 and b = Prng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Prng.next a) (Prng.next b)
  done

let test_prng_bounds () =
  let rng = Prng.create 3 in
  for _ = 1 to 1000 do
    let x = Prng.int rng 17 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 17);
    let f = Prng.float rng 2.5 in
    Alcotest.(check bool) "float in range" true (f >= 0.0 && f < 2.5)
  done

let test_prng_shuffle_permutes () =
  let rng = Prng.create 5 in
  let a = Array.init 50 Fun.id in
  Prng.shuffle rng a;
  Alcotest.(check (list int)) "same multiset" (List.init 50 Fun.id)
    (List.sort compare (Array.to_list a))

let test_stats () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "gmean" 2.0 (Stats.gmean [ 1.0; 2.0; 4.0 ]);
  Alcotest.(check (pair (float 1e-9) (float 1e-9))) "min_max" (1.0, 4.0)
    (Stats.min_max [ 2.0; 1.0; 4.0 ]);
  Alcotest.(check (float 1e-9)) "median" 2.0 (Stats.percentile 0.5 [ 3.0; 1.0; 2.0 ]);
  Alcotest.check_raises "gmean rejects <= 0"
    (Invalid_argument "Stats.gmean: non-positive element") (fun () ->
      ignore (Stats.gmean [ 1.0; 0.0 ]))

let test_table_render () =
  let t = Table.create [ "A"; "Bench" ] in
  Table.add_row t [ "1"; "x" ];
  Table.add_row t [ "22"; "yy" ];
  let s = Table.render t in
  Alcotest.(check bool) "header present" true (String.length s > 0);
  let lines = String.split_on_char '\n' s in
  (match lines with
  | header :: rule :: _ ->
    Alcotest.(check int) "aligned" (String.length header) (String.length rule)
  | _ -> Alcotest.fail "too few lines");
  Alcotest.check_raises "row width" (Invalid_argument "Table.add_row: row width mismatch")
    (fun () -> Table.add_row t [ "only one" ])

(* --- histograms and metrics --- *)

let test_hist_basics () =
  let h = Stats.hist_create () in
  Alcotest.(check int) "empty count" 0 (Stats.hist_count h);
  Alcotest.check_raises "empty percentile"
    (Invalid_argument "Stats.percentile_hist: empty") (fun () ->
      ignore (Stats.percentile_hist 0.5 h));
  List.iter (Stats.hist_add h) [ 0.001; 0.002; 0.004; 0.008; 0.1 ];
  Stats.hist_add h Float.nan;
  Alcotest.(check int) "count (NaN ignored)" 5 (Stats.hist_count h);
  Alcotest.(check (float 1e-9)) "sum" 0.115 (Stats.hist_sum h);
  Alcotest.(check (option (float 1e-9))) "min" (Some 0.001) (Stats.hist_min h);
  Alcotest.(check (option (float 1e-9))) "max" (Some 0.1) (Stats.hist_max h);
  Alcotest.(check (float 1e-9)) "mean" 0.023 (Stats.hist_mean h);
  (* percentiles stay within the observed range *)
  List.iter
    (fun p ->
      let v = Stats.percentile_hist p h in
      Alcotest.(check bool)
        (Printf.sprintf "p%.0f in range" (100.0 *. p))
        true
        (v >= 0.001 && v <= 0.1))
    [ 0.0; 0.5; 0.95; 0.99; 1.0 ];
  (* buckets cover every sample, ascending and disjoint *)
  let buckets = Stats.hist_buckets h in
  Alcotest.(check int) "bucket counts sum" 5
    (List.fold_left (fun a (_, _, c) -> a + c) 0 buckets);
  List.iter
    (fun (lo, hi, c) ->
      Alcotest.(check bool) "bucket well-formed" true (lo < hi && c > 0))
    buckets

let test_hist_under_overflow () =
  let h = Stats.hist_create ~lo:1.0 ~growth:2.0 ~buckets:3 () in
  (* range [1, 8); 0.5 underflows, 100 overflows *)
  List.iter (Stats.hist_add h) [ 0.5; 2.0; 100.0 ];
  Alcotest.(check int) "count" 3 (Stats.hist_count h);
  let v0 = Stats.percentile_hist 0.01 h in
  let v1 = Stats.percentile_hist 1.0 h in
  Alcotest.(check (float 1e-9)) "underflow clamps to min" 0.5 v0;
  Alcotest.(check (float 1e-9)) "overflow clamps to max" 100.0 v1

let test_hist_merge () =
  let a = Stats.hist_create () and b = Stats.hist_create () in
  List.iter (Stats.hist_add a) [ 0.001; 0.01 ];
  List.iter (Stats.hist_add b) [ 0.1; 1.0; 10.0 ];
  let m = Stats.hist_merge a b in
  Alcotest.(check int) "merged count" 5 (Stats.hist_count m);
  Alcotest.(check (float 1e-9)) "merged sum" 11.111 (Stats.hist_sum m);
  Alcotest.(check (option (float 1e-9))) "merged min" (Some 0.001)
    (Stats.hist_min m);
  Alcotest.(check (option (float 1e-9))) "merged max" (Some 10.0)
    (Stats.hist_max m);
  let other = Stats.hist_create ~buckets:7 () in
  Alcotest.check_raises "shape mismatch"
    (Invalid_argument "Stats.hist_merge: shape mismatch") (fun () ->
      ignore (Stats.hist_merge a other))

(* The histogram percentile must agree with the exact nearest-rank
   percentile up to one bucket of relative error (the growth factor). *)
let prop_percentile_hist_close =
  QCheck.Test.make ~count:200 ~name:"percentile_hist within growth of exact"
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 60) (float_range 1e-5 100.0))
        (float_range 0.0 1.0))
    (fun (xs, p) ->
      let growth = 10.0 ** 0.2 in
      let h = Stats.hist_create ~growth () in
      List.iter (Stats.hist_add h) xs;
      let exact = Stats.percentile p xs in
      let approx = Stats.percentile_hist p h in
      let lo, hi = Stats.min_max xs in
      approx >= lo && approx <= hi
      && approx <= exact *. growth +. 1e-12
      && approx >= exact /. growth -. 1e-12)

let test_metrics_registry () =
  let m = Metrics.create () in
  let c = Metrics.counter m "reqs" in
  Metrics.incr c;
  Metrics.incr ~by:4 c;
  Alcotest.(check int) "counter" 5 (Metrics.counter_value c);
  Alcotest.(check int) "same handle" 5
    (Metrics.counter_value (Metrics.counter m "reqs"));
  let g = Metrics.gauge m "depth" in
  Metrics.set g 3.5;
  Alcotest.(check (float 1e-9)) "gauge" 3.5 (Metrics.gauge_value g);
  let h = Metrics.histogram m "lat" in
  List.iter (Metrics.observe h) [ 0.001; 0.01; 0.1 ];
  let snap = Metrics.snapshot m in
  Alcotest.(check (list (pair string int))) "counters" [ ("reqs", 5) ]
    snap.Metrics.sn_counters;
  Alcotest.(check int) "snapshot hist count" 3
    (Stats.hist_count (List.assoc "lat" snap.Metrics.sn_hists));
  (* the snapshot is a copy: later observations don't leak in *)
  Metrics.observe h 0.5;
  Alcotest.(check int) "snapshot frozen" 3
    (Stats.hist_count (List.assoc "lat" snap.Metrics.sn_hists));
  (* merge sums counters and histograms, keeps max gauge *)
  let merged = Metrics.merge snap (Metrics.snapshot m) in
  Alcotest.(check (list (pair string int))) "merged counters" [ ("reqs", 10) ]
    merged.Metrics.sn_counters;
  Alcotest.(check int) "merged hist" 7
    (Stats.hist_count (List.assoc "lat" merged.Metrics.sn_hists));
  (* Prometheus exposition: cumulative buckets consistent with _count *)
  let prom = Metrics.to_prometheus merged in
  let has s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    m = 0 || go 0
  in
  Alcotest.(check bool) "prom counter line" true (has prom "reqs 10");
  Alcotest.(check bool) "prom inf bucket" true
    (has prom "lat_bucket{le=\"+Inf\"} 7");
  Alcotest.(check bool) "prom count" true (has prom "lat_count 7")

(* Two domains hammer the same histogram and counter; the snapshot must
   account for every observation — the registry's domain-safety contract. *)
let test_metrics_concurrent_domains () =
  let m = Metrics.create () in
  let per_domain = 20_000 in
  let work () =
    let c = Metrics.counter m "n" in
    let h = Metrics.histogram m "obs" in
    for i = 1 to per_domain do
      Metrics.incr c;
      Metrics.observe h (float_of_int (1 + (i mod 997)) /. 1000.0)
    done
  in
  let d1 = Domain.spawn work and d2 = Domain.spawn work in
  work ();
  Domain.join d1;
  Domain.join d2;
  let snap = Metrics.snapshot m in
  Alcotest.(check int) "counter total" (3 * per_domain)
    (List.assoc "n" snap.Metrics.sn_counters);
  Alcotest.(check int) "histogram total" (3 * per_domain)
    (Stats.hist_count (List.assoc "obs" snap.Metrics.sn_hists))

let test_span_recorder () =
  let r = Metrics.recorder ~max_spans:4 () in
  (* recorded out of order; [spans] must sort by start *)
  Metrics.record r ~trace:1 ~track:"worker" ~name:"execute" ~start:2.0 ~stop:5.0;
  Metrics.record r ~trace:1 ~track:"reader" ~name:"parse" ~start:1.0 ~stop:1.5;
  Metrics.record r ~trace:1 ~track:"worker" ~name:"compile" ~start:2.5 ~stop:3.0;
  let spans = Metrics.spans r in
  Alcotest.(check (list string)) "sorted by start"
    [ "parse"; "execute"; "compile" ]
    (List.map (fun s -> s.Metrics.sp_name) spans);
  (* nesting: the child span lies within its parent *)
  let parent = List.nth spans 1 and child = List.nth spans 2 in
  Alcotest.(check bool) "child nested in parent" true
    (child.Metrics.sp_start >= parent.Metrics.sp_start
    && child.Metrics.sp_stop <= parent.Metrics.sp_stop);
  (* bounded: past capacity, spans drop (head retained) *)
  Metrics.record r ~trace:2 ~track:"t" ~name:"a" ~start:6.0 ~stop:7.0;
  Metrics.record r ~trace:2 ~track:"t" ~name:"b" ~start:7.0 ~stop:8.0;
  Alcotest.(check int) "capacity" 4 (Metrics.span_count r);
  Alcotest.(check int) "dropped" 1 (Metrics.dropped_spans r)

(* --- bounded FIFO cache --------------------------------------------------- *)

(* The daemon's use: payload strings weighed by their length. *)
let payload_cache ~capacity = Fifo_cache.create ~weight:String.length ~capacity ()

let test_cache_hit_miss () =
  let c = payload_cache ~capacity:4 in
  Alcotest.(check (option string)) "cold miss" None (Fifo_cache.find c "k1");
  Fifo_cache.add c "k1" "payload-one";
  Alcotest.(check (option string)) "hit returns the stored bytes"
    (Some "payload-one") (Fifo_cache.find c "k1");
  Fifo_cache.add c "k1" "other";
  Alcotest.(check (option string)) "insert-if-absent keeps the first payload"
    (Some "payload-one") (Fifo_cache.find c "k1");
  let s = Fifo_cache.stats c in
  Alcotest.(check int) "hits" 2 s.Fifo_cache.hits;
  Alcotest.(check int) "misses" 1 s.Fifo_cache.misses;
  Alcotest.(check int) "entries" 1 s.Fifo_cache.entries;
  Alcotest.(check int) "payload bytes" (String.length "payload-one")
    s.Fifo_cache.weight

let test_cache_fifo_eviction () =
  Alcotest.check_raises "capacity must be positive"
    (Invalid_argument "Fifo_cache.create: capacity must be >= 1") (fun () ->
      ignore (payload_cache ~capacity:0));
  let c = payload_cache ~capacity:2 in
  Fifo_cache.add c "a" "1";
  Fifo_cache.add c "b" "22";
  Fifo_cache.add c "c" "333";
  let s = Fifo_cache.stats c in
  Alcotest.(check int) "entries bounded" 2 s.Fifo_cache.entries;
  Alcotest.(check int) "one eviction" 1 s.Fifo_cache.evictions;
  Alcotest.(check (option string)) "oldest evicted" None (Fifo_cache.find c "a");
  Alcotest.(check (option string)) "newer kept" (Some "22") (Fifo_cache.find c "b");
  Alcotest.(check (option string)) "newest kept" (Some "333")
    (Fifo_cache.find c "c");
  Alcotest.(check int) "bytes track residents"
    (String.length "22" + String.length "333")
    (Fifo_cache.stats c).Fifo_cache.weight

type cache_op =
  | Find of int
  | Add of int * string
  | Set_capacity of int
  | Clear

let show_cache_op = function
  | Find k -> Printf.sprintf "find %d" k
  | Add (k, v) -> Printf.sprintf "add %d %S" k v
  | Set_capacity n -> Printf.sprintf "set_capacity %d" n
  | Clear -> "clear"

(* Pure model: residents oldest first, plus the counters. *)
type cache_model = {
  m_entries : (int * string) list;
  m_capacity : int;
  m_hits : int;
  m_misses : int;
  m_evictions : int;
}

let rec model_trim m n =
  match m.m_entries with
  | _ :: rest when List.length m.m_entries > n ->
    model_trim { m with m_entries = rest; m_evictions = m.m_evictions + 1 } n
  | _ -> m

(* The model after [op], and [op]'s answer (only [Find] answers). *)
let model_step m = function
  | Find k -> (
    match List.assoc_opt k m.m_entries with
    | Some _ as v -> ({ m with m_hits = m.m_hits + 1 }, v)
    | None -> ({ m with m_misses = m.m_misses + 1 }, None))
  | Add (k, v) ->
    if List.mem_assoc k m.m_entries then (m, None)
    else
      let m = model_trim m (m.m_capacity - 1) in
      ({ m with m_entries = m.m_entries @ [ (k, v) ] }, None)
  | Set_capacity n -> (model_trim { m with m_capacity = n } n, None)
  | Clear ->
    ( { m_entries = []; m_capacity = m.m_capacity; m_hits = 0; m_misses = 0;
        m_evictions = 0 },
      None )

let model_stats m =
  {
    Fifo_cache.hits = m.m_hits;
    misses = m.m_misses;
    evictions = m.m_evictions;
    entries = List.length m.m_entries;
    capacity = m.m_capacity;
    weight = List.fold_left (fun w (_, v) -> w + String.length v) 0 m.m_entries;
  }

let cache_step c = function
  | Find k -> Fifo_cache.find c k
  | Add (k, v) ->
    Fifo_cache.add c k v;
    None
  | Set_capacity n ->
    Fifo_cache.set_capacity c n;
    None
  | Clear ->
    Fifo_cache.clear c;
    None

let cache_ops =
  let open QCheck.Gen in
  let key = int_bound 4 in
  let op =
    frequency
      [
        (4, map (fun k -> Find k) key);
        ( 4,
          map2
            (fun k v -> Add (k, v))
            key
            (string_size ~gen:(char_range 'a' 'c') (int_bound 5)) );
        (1, map (fun n -> Set_capacity n) (int_range 1 4));
        (1, return Clear);
      ]
  in
  QCheck.make
    ~print:QCheck.Print.(list show_cache_op)
    ~shrink:QCheck.Shrink.list
    (list_size (int_range 1 60) op)

(* After every step of a random op sequence over a small key space, [find]'s
   answer and every [stats] field equal the list model's. *)
let prop_cache_model =
  QCheck.Test.make ~count:300 ~name:"fifo cache matches a list model" cache_ops
    (fun ops ->
      let c = payload_cache ~capacity:3 in
      let init =
        { m_entries = []; m_capacity = 3; m_hits = 0; m_misses = 0;
          m_evictions = 0 }
      in
      ignore
        (List.fold_left
           (fun m op ->
             let m, want = model_step m op in
             let got = cache_step c op in
             let s = Fifo_cache.stats c in
             if got <> want then
               QCheck.Test.fail_reportf "%s answered %s, model %s"
                 (show_cache_op op)
                 (Option.value ~default:"none" got)
                 (Option.value ~default:"none" want);
             if s <> model_stats m || s.Fifo_cache.entries > s.Fifo_cache.capacity
             then
               QCheck.Test.fail_reportf
                 "after %s: stats differ from the model" (show_cache_op op);
             m)
           init ops);
      true)

let prop_heap_min =
  QCheck.Test.make ~count:100 ~name:"heap min is list min"
    QCheck.(list_of_size Gen.(int_range 1 50) int)
    (fun xs ->
      let h = Heap.create () in
      List.iter (Heap.push h) xs;
      Heap.min h = List.fold_left min (List.hd xs) xs)

let prop_percentile_bounds =
  QCheck.Test.make ~count:100 ~name:"percentile within min/max"
    QCheck.(pair (list_of_size Gen.(int_range 1 30) (float_range 0.0 100.0)) (float_range 0.0 1.0))
    (fun (xs, p) ->
      let v = Stats.percentile p xs in
      let lo, hi = Stats.min_max xs in
      v >= lo && v <= hi)

let suite =
  [
    Alcotest.test_case "vec growth" `Quick test_vec_growth;
    Alcotest.test_case "vec bounds" `Quick test_vec_bounds;
    Alcotest.test_case "int vec" `Quick test_int_vec;
    Alcotest.test_case "heap sorts" `Quick test_heap_sorts;
    Alcotest.test_case "heap empty" `Quick test_heap_empty;
    Alcotest.test_case "prng deterministic" `Quick test_prng_deterministic;
    Alcotest.test_case "prng bounds" `Quick test_prng_bounds;
    Alcotest.test_case "prng shuffle" `Quick test_prng_shuffle_permutes;
    Alcotest.test_case "stats" `Quick test_stats;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "hist basics" `Quick test_hist_basics;
    Alcotest.test_case "hist under/overflow" `Quick test_hist_under_overflow;
    Alcotest.test_case "hist merge" `Quick test_hist_merge;
    Alcotest.test_case "metrics registry" `Quick test_metrics_registry;
    Alcotest.test_case "metrics concurrent domains" `Quick
      test_metrics_concurrent_domains;
    Alcotest.test_case "span recorder" `Quick test_span_recorder;
    QCheck_alcotest.to_alcotest prop_heap_min;
    QCheck_alcotest.to_alcotest prop_percentile_bounds;
    QCheck_alcotest.to_alcotest prop_percentile_hist_close;
  ]

let cache_suite =
  [
    Alcotest.test_case "hit and miss" `Quick test_cache_hit_miss;
    Alcotest.test_case "fifo eviction" `Quick test_cache_fifo_eviction;
    QCheck_alcotest.to_alcotest prop_cache_model;
  ]

let () =
  Alcotest.run "phloem_util" [ ("util", suite); ("cache", cache_suite) ]
