(* Compressed Sparse Row matrices for the sparse linear algebra benchmarks
   (SpMM, SpMV, SDDMM, MTMul, Residual). Column indices are sorted within
   each row, which the merge-intersection in SpMM relies on. *)

type t = {
  rows : int;
  cols : int;
  nnz : int;
  row_ptr : int array; (* length rows+1 *)
  col_idx : int array; (* length nnz, sorted within each row *)
  vals : float array; (* length nnz *)
}

exception Malformed of string

let check m =
  if Array.length m.row_ptr <> m.rows + 1 then raise (Malformed "row_ptr length");
  if m.row_ptr.(0) <> 0 || m.row_ptr.(m.rows) <> m.nnz then raise (Malformed "row_ptr ends");
  for r = 0 to m.rows - 1 do
    if m.row_ptr.(r) > m.row_ptr.(r + 1) then raise (Malformed "row_ptr not monotone");
    for e = m.row_ptr.(r) to m.row_ptr.(r + 1) - 2 do
      if m.col_idx.(e) >= m.col_idx.(e + 1) then
        raise (Malformed "column indices not strictly sorted within row")
    done
  done;
  Array.iter
    (fun c -> if c < 0 || c >= m.cols then raise (Malformed "column out of range"))
    m.col_idx

let avg_nnz_row m = if m.rows = 0 then 0.0 else float_of_int m.nnz /. float_of_int m.rows

(* Build from (row, col, value) triples; duplicates collapse by summation. *)
let of_triples ~rows ~cols triples =
  let tbl = Hashtbl.create (List.length triples) in
  List.iter
    (fun (r, c, v) ->
      if r < 0 || r >= rows || c < 0 || c >= cols then raise (Malformed "triple out of range");
      let key = (r, c) in
      let cur = try Hashtbl.find tbl key with Not_found -> 0.0 in
      Hashtbl.replace tbl key (cur +. v))
    triples;
  let per_row = Array.make rows [] in
  Hashtbl.iter (fun (r, c) v -> per_row.(r) <- (c, v) :: per_row.(r)) tbl;
  let row_ptr = Array.make (rows + 1) 0 in
  for r = 0 to rows - 1 do
    per_row.(r) <- List.sort compare per_row.(r);
    row_ptr.(r + 1) <- row_ptr.(r) + List.length per_row.(r)
  done;
  let nnz = row_ptr.(rows) in
  let col_idx = Array.make (max nnz 1) 0 in
  let vals = Array.make (max nnz 1) 0.0 in
  for r = 0 to rows - 1 do
    List.iteri
      (fun i (c, v) ->
        col_idx.(row_ptr.(r) + i) <- c;
        vals.(row_ptr.(r) + i) <- v)
      per_row.(r)
  done;
  let m =
    {
      rows;
      cols;
      nnz;
      row_ptr;
      col_idx = (if nnz = 0 then [||] else col_idx);
      vals = (if nnz = 0 then [||] else vals);
    }
  in
  check m;
  m

(* Transpose (used to express the inner-product SpMM B^T and MTMul). *)
let transpose m =
  let triples = ref [] in
  for r = 0 to m.rows - 1 do
    for e = m.row_ptr.(r) to m.row_ptr.(r + 1) - 1 do
      triples := (m.col_idx.(e), r, m.vals.(e)) :: !triples
    done
  done;
  of_triples ~rows:m.cols ~cols:m.rows !triples
