(** Static analysis of instantiated kernels.

    Everything later phases need to know about a stencil body: access
    offsets, stencil order, FLOP counts (Table-I convention: one FLOP per
    binary arithmetic operation; loop-invariant temporaries are hoisted
    and free), halo extents for fused DAGs, the homogenizability test
    that gates retiming (Section III-B2), and pointwise-combination
    detection for storage/computation folding (Section III-B4). *)

(** One array read with its per-dimension binding: for each dimension of
    the array, the indexing iterator (if any) and the constant shift. *)
type access = {
  array : string;
  binding : (string option * int) array;
}

val accesses_of_expr : Ast.expr -> access list
val accesses_of_stmt : Ast.stmt -> access list

(** All array reads in the kernel body. *)
val read_accesses : Instantiate.kernel -> access list

(** Map an access to a shift per kernel iterator (dimensions indexed by a
    constant contribute nothing). *)
val offset_vector : string list -> access -> int array

(** Maximum |shift| over all reads — the stencil order [k] of Table I. *)
val stencil_order : Instantiate.kernel -> int

(** Per-dimension maximum |shift|. *)
val order_per_dim : Instantiate.kernel -> int array

val flops_of_expr : Ast.expr -> int

(** FLOPs of one statement; [+=] costs one extra add; a temporary whose
    right-hand side reads no array is loop-invariant and costs nothing. *)
val flops_of_stmt : Ast.stmt -> int

(** Useful double-precision FLOPs per interior domain point. *)
val flops_per_point : Instantiate.kernel -> int

val io_arrays : Instantiate.kernel -> string list

(** Distinct input/output arrays touched — "# IO Arrays" of Table I. *)
val io_array_count : Instantiate.kernel -> int

(** Theoretical operational intensity (Table III's OI_T): FLOPs per byte
    assuming each IO array element moves exactly once. *)
val theoretical_oi : Instantiate.kernel -> float

(** Textual reads of each array per point — the demotion-victim metric of
    resource rationing (Section II-B2). *)
val reads_per_point : Instantiate.kernel -> (string * int) list

(** [tally_reads k (read_accesses k)] is [reads_per_point k], for a
    caller that already holds the reads. *)
val tally_reads : Instantiate.kernel -> access list -> (string * int) list

(** Distinct read-offset vectors per array, aligned to kernel iterators. *)
val distinct_offsets : Instantiate.kernel -> (string * int array list) list

(** [offsets_of_reads k.iters (read_accesses k)] is [distinct_offsets k]. *)
val offsets_of_reads : string list -> access list -> (string * int array list) list

(** {1 Halo extents for fused kernels} *)

(** Interval per dimension describing how far beyond the output tile a
    value must be available: [(lo, hi)] with [lo <= 0 <= hi]. *)
type extent = (int * int) array

val zero_extent : int -> extent
val union_extent : extent -> extent -> extent
val shift_extent : extent -> int array -> extent
val extent_width : extent -> int -> int

(** Backward halo propagation over the body: for every array and
    temporary, the region (relative to one output point) that must be
    available — the analysis that drives overlapped tiling of stencil
    DAGs.  Each call builds a fresh table. *)
val required_extents : Instantiate.kernel -> (string, extent) Hashtbl.t

(** {1 Homogenizability (retiming precondition)} *)

(** Split an expression into top-level additive terms with signs
    ([true] = positive). *)
val decompose_sum : Ast.expr -> (bool * Ast.expr) list

(** [term_stream_shift iters dim t] is [Some s] when every array read in
    [t] shares shift [s] along [dim] (the term homogenizes), [None] when
    shifts differ; a term without reads homogenizes at 0. *)
val term_stream_shift : string list -> string -> Ast.expr -> int option

val stmt_retimable : string list -> string -> Ast.stmt -> bool

(** The whole kernel is retimable along [dim] when every statement's
    additive terms homogenize. *)
val kernel_retimable : Instantiate.kernel -> string -> bool

(** {1 Folding (Section III-B4)} *)

(** Groups of arrays only ever read combined pointwise with one operator
    at identical offsets — candidates for storing the combined value. *)
val foldable_groups : Instantiate.kernel -> (Ast.binop * string list) list
