(** Compressed Sparse Row matrices for the sparse linear algebra
    benchmarks. Column indices are strictly sorted within each row — the
    SpMM merge-intersection depends on it. *)

type t = {
  rows : int;
  cols : int;
  nnz : int;
  row_ptr : int array;  (** length rows+1 *)
  col_idx : int array;  (** length nnz *)
  vals : float array;  (** length nnz *)
}

exception Malformed of string

val check : t -> unit
(** @raise Malformed on inconsistent structure. *)

val avg_nnz_row : t -> float

val of_triples : rows:int -> cols:int -> (int * int * float) list -> t
(** Duplicate coordinates collapse by summation.
    @raise Malformed on out-of-range coordinates. *)

val transpose : t -> t
