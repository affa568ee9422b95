(* Seeded benchmark inputs. Graphs and matrices come from the run's --seed
   through the repository's own generators, shaped like the paper's
   Table IV (R-MAT, grid, mesh, uniform) and Table V (power-law, banded).
   [scale] multiplies their sizes; the self-tests use a tiny one. *)

open Phloem_workloads
module Gen = Phloem_graph.Gen
module Sgen = Phloem_sparse.Gen

let default_seed = 1

(* Never used while the benchmark was tuned: a claim is re-checked on it. *)
let held_out_seed = 9001

(* The generator seed of one input: a pure function of (run seed, input). *)
let sub_seed ~seed key =
  Phloem_util.Prng.int (Phloem_util.Prng.of_key ~seed ~key) 0x3fffffff

let sc scale base = max 8 (int_of_float (float_of_int base *. scale))

(* R-MAT has 2^bits vertices: 512 at scale 1. *)
let rmat_bits scale = max 4 (9 + int_of_float (Float.round (Float.log2 scale)))

let graphs ~scale ~seed =
  [
    ("rmat", Gen.rmat ~scale:(rmat_bits scale) ~edge_factor:3 ~seed:(sub_seed ~seed 1));
    ("grid", Gen.grid ~width:(sc scale 22) ~height:(sc scale 18) ~seed:(sub_seed ~seed 2));
    ("mesh", Gen.mesh ~width:(sc scale 18) ~height:(sc scale 15) ~seed:(sub_seed ~seed 3));
    ("uniform", Gen.uniform ~n:(sc scale 500) ~avg_degree:5 ~seed:(sub_seed ~seed 4));
  ]

let matrices ~scale ~seed =
  [
    ( "power-law",
      Sgen.power_law ~rows:(sc scale 36) ~cols:(sc scale 36) ~nnz_per_row:10
        ~seed:(sub_seed ~seed 5) );
    ( "banded",
      Sgen.banded ~n:(sc scale 32) ~bandwidth:(sc scale 10) ~nnz_per_row:15
        ~seed:(sub_seed ~seed 6) );
  ]

let graph_kernels = [ "bfs"; "cc"; "prd"; "radii" ]
let kernels = graph_kernels @ [ "spmm" ]

let source = function
  | "bfs" -> Bfs.serial_source
  | "cc" -> Cc.serial_source
  | "prd" -> Prd.serial_source
  | "radii" -> Radii.serial_source
  | "spmm" -> Spmm.serial_source
  | k -> invalid_arg ("unknown kernel " ^ k)

let bind_graph kernel g =
  match kernel with
  | "bfs" -> Bfs.bind g
  | "cc" -> Cc.bind g
  | "prd" -> Prd.bind g
  | "radii" -> Radii.bind g
  | k -> invalid_arg ("not a graph kernel: " ^ k)

let bind_matrix m = Spmm.bind m (Phloem_sparse.Csr_matrix.transpose m)

(* Parse and lower each kernel's minic source once: the minic layer. *)
let lower_sources spans =
  List.fold_left
    (fun bytes k ->
      let src = source k in
      ignore (Span.with_ spans "minic" (fun () -> Phloem_minic.Lower.of_source src));
      bytes + String.length src)
    0 kernels
