(** Kernel fission for register-constrained stencil DAGs (paper, Section
    VI-B, Figure 3). *)

(** The kernel unchanged, labelled for its maxfuse role. *)
val maxfuse : Artemis_dsl.Instantiate.kernel -> Artemis_dsl.Instantiate.kernel

(** One sub-kernel per distinct final output, each carrying the backward
    slice of statements producing it (temporaries replicate across parts,
    as mux1..muz4 do in Figure 3). *)
val trivial :
  Artemis_dsl.Instantiate.kernel -> Artemis_dsl.Instantiate.kernel list

(** Greedy packing of output slices into sub-kernels while the merged
    recomputation halo stays within max(4, r) and the merged kernel still
    compiles spill-free — the paper's "no register spills and/or
    excessive recomputations" rule. *)
val recompute :
  Artemis_dsl.Instantiate.kernel -> Artemis_dsl.Instantiate.kernel list

(** Emit a candidate list as a DSL program (what ARTEMIS writes out for
    the user, Figure 3c); array extents become named parameters, every
    sub-kernel becomes a stencil definition invoked once.  The result
    checks and round-trips through the parser. *)
val to_dsl :
  Artemis_dsl.Instantiate.kernel -> Artemis_dsl.Instantiate.kernel list ->
  Artemis_dsl.Ast.program
