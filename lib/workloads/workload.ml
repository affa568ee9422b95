(* Common shape of an evaluated benchmark: given an input, a workload binds
   the serial kernel, a data-parallel implementation, and a hand-pipelined
   implementation to concrete arrays, and says how to validate results. *)

open Phloem_ir.Types

type inputs = (string * value array) list

type bound = {
  b_name : string;
  b_serial : pipeline * inputs;
  b_data_parallel : threads:int -> pipeline * inputs;
  b_manual : (pipeline * inputs) option;
  b_check_arrays : string list;
      (* output arrays that must match the serial result (and the reference) *)
  b_reference : inputs; (* expected contents of the checked arrays *)
  b_float_tolerance : float; (* 0.0 = exact; else relative tolerance *)
}

let vint a = Array.map (fun x -> Vint x) a
let vfloat a = Array.map (fun x -> Vfloat x) a

let values_close ~tol a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y ->
         match (x, y) with
         | Vint i, Vint j -> i = j
         | Vfloat f, Vfloat g ->
           if tol = 0.0 then f = g
           else abs_float (f -. g) <= tol *. (1.0 +. max (abs_float f) (abs_float g))
         | Vctrl a, Vctrl b -> a = b
         | _ -> false)
       a b

(* Does a run's output match the workload's reference? *)
let check (b : bound) (r : Phloem_ir.Interp.result) : bool =
  List.for_all
    (fun name ->
      match
        ( List.assoc_opt name r.Phloem_ir.Interp.r_arrays,
          List.assoc_opt name b.b_reference )
      with
      | Some got, Some want -> values_close ~tol:b.b_float_tolerance got want
      | _, _ -> false)
    b.b_check_arrays
