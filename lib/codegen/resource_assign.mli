(** Resource assignment: which arrays to stage in shared memory or
    registers and which to read from global memory (paper, Section II-B).

    Automatic policy: inputs with reuse (read at more than one offset)
    and fused-kernel intermediates are staged; single-use inputs and
    low-rank (1-D) arrays stay in global memory.  The [#assign] clauses
    override the policy, and an [occupancy t] target triggers the
    demotion loop: while the shared footprint caps occupancy below the
    target, demote the staged array with the fewest reads per point. *)

(** The full assignment for a plan skeleton: automatic policy, user
    overrides when [honor_user], then occupancy-targeted rationing. *)
val assign :
  Artemis_ir.Plan.t -> honor_user:bool -> target_occupancy:float option ->
  (string * Artemis_dsl.Ast.placement) list
