(* Tests for the domain work pool: submission-order determinism, exception
   propagation, nested submits, the --jobs 1 serial path, keyed PRNG
   streams, and byte-identical parallel-vs-serial harness reports. *)

open Phloem_util

(* Nontrivial, per-item-varying work so pooled runs actually interleave. *)
let job i =
  let rng = Prng.of_key ~seed:7 ~key:i in
  let acc = ref 0 in
  for _ = 0 to 2_000 + ((i mod 7) * 800) do
    acc := !acc + Prng.int rng 1000
  done;
  (i, !acc)

let test_submission_order () =
  let items = Array.init 200 Fun.id in
  let expected = Array.map job items in
  Pool.with_pool ~jobs:4 (fun pool ->
      for _ = 1 to 3 do
        let got = Pool.map pool job items in
        Alcotest.(check bool) "results in submission order" true (got = expected)
      done)

let test_jobs1_matches_serial () =
  let items = Array.init 64 Fun.id in
  let serial = Array.map job items in
  Pool.with_pool ~jobs:1 (fun pool ->
      Alcotest.(check bool) "jobs=1 == serial" true (Pool.map pool job items = serial);
      (* jobs=1 spawns no domains: jobs run on the calling domain *)
      let self = Domain.self () in
      let ds = Pool.map pool (fun _ -> Domain.self ()) (Array.make 8 ()) in
      Alcotest.(check bool) "runs inline" true (Array.for_all (( = ) self) ds))

let test_exception_propagation () =
  Pool.with_pool ~jobs:4 (fun pool ->
      (* several jobs fail; the lowest-index failure must surface *)
      Alcotest.check_raises "lowest-index exception" (Failure "boom 13") (fun () ->
          ignore
            (Pool.map pool
               (fun i ->
                 ignore (job i);
                 if i = 13 || i = 40 then failwith (Printf.sprintf "boom %d" i);
                 i)
               (Array.init 64 Fun.id)));
      (* a failed batch must not poison the pool *)
      let got = Pool.map pool succ (Array.init 16 Fun.id) in
      Alcotest.(check (array int)) "pool reusable after failure"
        (Array.init 16 succ) got)

let test_nested_submit () =
  Pool.with_pool ~jobs:3 (fun pool ->
      let got =
        Pool.map pool
          (fun i ->
            (* a nested submit runs inline in the worker; must not deadlock *)
            Array.to_list (Pool.map pool (fun j -> (i * 10) + j) (Array.init 4 Fun.id)))
          (Array.init 6 Fun.id)
      in
      let expected =
        Array.init 6 (fun i -> List.init 4 (fun j -> (i * 10) + j))
      in
      Alcotest.(check bool) "nested results" true (got = expected))

let test_run_thunks () =
  Pool.with_pool ~jobs:2 (fun pool ->
      let got = Pool.run pool [ (fun () -> 1); (fun () -> 2); (fun () -> 3) ] in
      Alcotest.(check (list int)) "thunk order" [ 1; 2; 3 ] got)

let drain n rng = List.init n (fun _ -> Prng.next rng)

let test_prng_keyed_streams () =
  (* of_key is a pure function of (seed, key): creation order is irrelevant *)
  let a1 = drain 8 (Prng.of_key ~seed:42 ~key:3) in
  let b1 = drain 8 (Prng.of_key ~seed:42 ~key:4) in
  let b2 = drain 8 (Prng.of_key ~seed:42 ~key:4) in
  let a2 = drain 8 (Prng.of_key ~seed:42 ~key:3) in
  Alcotest.(check (list int)) "key 3 reproducible" a1 a2;
  Alcotest.(check (list int)) "key 4 reproducible" b1 b2;
  Alcotest.(check bool) "keys differ" true (a1 <> b1);
  Alcotest.(check bool) "seeds differ" true
    (drain 8 (Prng.of_key ~seed:43 ~key:3) <> a1);
  (* split: children are distinct from each other and from the parent *)
  let parent = Prng.create 9 in
  let c1 = Prng.split parent in
  let c2 = Prng.split parent in
  let s1 = drain 8 c1 and s2 = drain 8 c2 in
  Alcotest.(check bool) "split streams differ" true (s1 <> s2);
  Alcotest.(check bool) "split differs from parent" true (drain 8 parent <> s1)

let test_interp_budget_is_domain_local () =
  (* with_max_ops in one domain must not leak into another running at the
     default budget *)
  Phloem_ir.Interp.with_max_ops 123 (fun () ->
      Alcotest.(check int) "set in this domain" 123 (Phloem_ir.Interp.max_ops ());
      let other = Domain.spawn (fun () -> Phloem_ir.Interp.max_ops ()) in
      Alcotest.(check int) "default in fresh domain" 60_000_000
        (Domain.join other));
  Alcotest.(check int) "restored" 60_000_000 (Phloem_ir.Interp.max_ops ())

(* The acceptance check of the parallel harness: the fig9-11 collection is
   byte-identical between --jobs 1 (no pool) and --jobs 4. Grid/mesh inputs
   honour [scale], so this stays small. *)
let test_parallel_vs_serial_json () =
  let module E = Phloem_harness.Experiments in
  let scale = 0.05 in
  let benches = [ "BFS"; "CC" ] in
  let only_inputs = [ "hugetrace-00000"; "USA-road-d-USA" ] in
  let serial = E.collect ~benches ~only_inputs ~pgo:false ~scale () in
  let par =
    Pool.with_pool ~jobs:4 (fun pool ->
        E.collect ~pool ~benches ~only_inputs ~pgo:false ~scale ())
  in
  Alcotest.(check string) "byte-identical --jobs 1 vs --jobs 4"
    (Json.to_string (E.json_of_collection serial))
    (Json.to_string (E.json_of_collection par))

(* PGO under the pool: same recipe, and the same outcome byte for byte —
   every profiled candidate's cycles, speedups and verdict. *)
let test_parallel_search_deterministic () =
  let g = Phloem_graph.Gen.grid ~width:10 ~height:10 ~seed:5 in
  let bounds = [ Phloem_workloads.Bfs.bind g ] in
  let serial_recipe, serial = Phloem_harness.Runner.pgo_cuts ~top_k:3 ~max_cuts:2 bounds in
  let par_recipe, par =
    Pool.with_pool ~jobs:4 (fun pool ->
        Phloem_harness.Runner.pgo_cuts ~top_k:3 ~max_cuts:2 ~pool bounds)
  in
  Alcotest.(check bool) "same best cuts" true (serial_recipe = par_recipe);
  let bytes o = Json.to_string (Phloem.Autotune.json_of_outcome o) in
  Alcotest.(check string) "same candidates" (bytes serial) (bytes par)

let () =
  Alcotest.run "pool"
    [
      ( "pool",
        [
          Alcotest.test_case "submission order" `Quick test_submission_order;
          Alcotest.test_case "jobs=1 serial path" `Quick test_jobs1_matches_serial;
          Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
          Alcotest.test_case "nested submit" `Quick test_nested_submit;
          Alcotest.test_case "run thunks" `Quick test_run_thunks;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "prng keyed streams" `Quick test_prng_keyed_streams;
          Alcotest.test_case "interp budget domain-local" `Quick
            test_interp_budget_is_domain_local;
          Alcotest.test_case "search pooled == serial" `Quick
            test_parallel_search_deterministic;
          Alcotest.test_case "experiments json byte-identical" `Slow
            test_parallel_vs_serial_json;
        ] );
    ]
