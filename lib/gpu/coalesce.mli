(** Global-memory coalescing model.

    GPUs service global accesses in 32-byte sectors; these helpers count
    the sectors a warp access pattern touches.  Both the block executor
    and the analytic counter evaluator count transactions through this
    module, so they agree by construction. *)

(** Elements of [elem_bytes] bytes per 32-byte sector. *)
val elems_per_sector : elem_bytes:int -> int

(** Sectors touched by a contiguous run of [n] elements whose first
    element sits at linear element index [first] (alignment matters: a
    misaligned run straddles one extra sector). *)
val run_sectors : elem_bytes:int -> first:int -> n:int -> int

(** Sectors for a strided warp access: consecutive lanes [stride]
    elements apart.  A stride of one sector or more costs one sector per
    lane — the fully uncoalesced worst case. *)
val strided_sectors : elem_bytes:int -> first:int -> lanes:int -> stride:int -> int

