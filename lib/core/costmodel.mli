(** Decoupling-point selection (paper Sec. V): ranks memory accesses by
    predicted cost x frequency.

    Cost depends on the access pattern (indirect > scan > sequential);
    frequency is weighted by loop depth. Accesses adjacent to an earlier
    access on the same array (index differing by a constant, like
    [nodes\[v\]]/[nodes\[v+1\]]) group into one cut so they share a stage
    and, later, a reference accelerator. A load followed by a store to the
    same array in the same iteration is marked prefetch-only (paper
    Fig. 4): decoupling there may prefetch but the consumer re-loads. *)

type access_kind = Sequential | Scan | Indirect

type load_site = {
  ls_ordinal : int;  (** position among loads, program order *)
  ls_array : Phloem_ir.Types.array_id;
  ls_depth : int;  (** loop nesting depth *)
  ls_kind : access_kind;
  ls_group_head : int;  (** ordinal of its adjacency group's first load *)
  ls_prefetch_only : bool;
  ls_score : float;
}

type cut = {
  cut_loads : int list;  (** load ordinals of the group, ascending *)
  cut_prefetch : bool;
  cut_score : float;
}

val analyze : Ktree.t list -> load_site list
(** All load sites of a normalized kernel, in program order. *)

val candidates : Ktree.t list -> cut list
(** Candidate cuts, best first. *)
