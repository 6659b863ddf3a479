(** Expression evaluation at a domain point — shared by the reference
    executor and the block executor so both compute identical values.

    The executors evaluate through {!compile_stmt}'s flat-index row
    evaluator; the point-wise interpreter (the [Interpret] {!schedule},
    which evaluates the expression tree per point behind {!guard}) is the
    reference it is checked against. *)

(** Raised when an array read falls outside its grid; callers treat the
    statement as guarded off at that point. *)
exception Out_of_bounds

(** Raised (at compile time, or per point by the interpreter) on a call
    to an intrinsic that is not in [Check.intrinsics] or has the wrong
    arity — diagnosed ahead of execution as lint code A104. *)
exception Unknown_intrinsic of string

type env = {
  lookup_array : string -> Grid.t;  (** concrete array storage *)
  lookup_scalar : string -> float;  (** runtime scalar arguments *)
  lookup_temp : string -> float;  (** per-point temporaries; raises [Not_found] *)
  iters : string list;  (** kernel iterators, outermost first *)
}

(** Absolute coordinates of an access at a domain point. *)
val access_coords : env -> int array -> Artemis_dsl.Ast.index list -> int array

(** All array reads of the expression are in bounds at the point — the
    guard the generated CUDA emits. *)
val guard : env -> int array -> Artemis_dsl.Ast.expr -> bool

(** {1 Schedule} *)

(** How {!compile_stmt} sweeps statements.  [Interpret] runs every
    statement point by point through the expression interpreter behind
    {!guard} (classified [Sc_guarded]) — the point-wise reference the
    differential tests compare against.  [Rows] runs the row evaluator
    over each statement's in-bounds box ({!split_interior}):
    order-independent statements sweep it row by row, statements whose
    self-dependences are uniform sweep it through the wavefront schedule
    ({!Wavefront}), and the points outside it — guard-failing no-ops by
    construction — are skipped and charged to [exec.eliminated_points].
    Results are bit-identical under both schedules — pinned by the fuzz
    oracle and the tests. *)
type schedule = Interpret | Rows

(** Name resolution for compilation, fixed before the sweep begins:
    [bind_temp] wins over [bind_scalar] for scalar references (temps
    shadow scalars), and [bind_array] must already apply whatever
    scratch/temp precedence the executor wants for array accesses. *)
type binder = {
  bind_array : string -> Grid.t;  (** array storage, temp grids included *)
  bind_temp : string -> Grid.t option;  (** per-point temporaries as grids *)
  bind_scalar : string -> float;
  binder_iters : string list;  (** kernel iterators, outermost first *)
}

(** {1 Flat-index split compilation}

    Inside a guaranteed-in-bounds interior box an affine access moves
    through its grid's flat [float array] with a fixed stride along the
    innermost iterator, so the interior sweeps a row at a time: each
    expression operation is one tight [for] loop over flat offsets into
    a reused row buffer, with zero per-point checks and no boxed floats
    — see [Region] for the region decomposition and docs/PERF.md for the
    full picture. *)

(** One access lowered to flat-index form: a per-row base offset plus a
    fixed per-point stride along the innermost iterator.  The base is
    affine in the iteration point: [ap_const + sum_d ap_coef.(d) * p.(d)]. *)
type access_path = {
  ap_grid : Grid.t;
  ap_spec : (int * int) array;
      (** per array dimension: [(iteration dim, shift)]; dim [-1] means a
          constant index *)
  ap_step : int;  (** flat-index stride per unit of the innermost iterator *)
  ap_const : int;  (** flat index at the iteration-space origin *)
  ap_coef : int array;  (** flat-index stride per iteration dimension *)
  mutable ap_base : int;  (** flat index at the current row's start point *)
}

(** A statement lowered for split execution. *)
type split_stmt = {
  ss_write : access_path;
  ss_expr : flat;
  ss_paths : access_path list;
      (** write plus reads — the in-bounds constraints for {!split_interior} *)
}

(** The statement's expression compiled for row-at-a-time evaluation:
    structurally identical subtrees are computed once (into a cell when
    row-invariant, else into a row buffer of their own), row-invariant
    subtrees run once per row, the rest as one loop per operation over
    the row.  Rows whose reads may see a cell written
    earlier in the same row (wavefront schedules, or a write that does
    not move along the row) evaluate one point at a time through the
    same program. *)
and flat

(** The sub-box of [region] where every access of the statement is in
    bounds (its unguarded interior), as the affine engine computes it
    ({!Artemis_static.Static.footprint}).  Every region point outside it
    fails the write's bounds check or the read guard, so the executors
    skip those points. *)
val split_interior : split_stmt -> Region.box -> Region.box

(** {1 Unified statement compilation}

    One entry point deciding how a statement sweeps: order-independent
    statements split (interior rows), uniform self-dependent statements
    take the wavefront schedule under a legal hyperplane, everything
    else stays guarded per point. *)

type stmt_class =
  | Sc_split of split_stmt  (** order-independent: interior rows *)
  | Sc_wavefront of split_stmt * int array
      (** uniform self-dependence under the given outer-dimension
          hyperplane ({!Wavefront.sweep}) *)
  | Sc_guarded  (** whole-region guarded per-point fallback *)

type stmt_exec = {
  sx_class : stmt_class;
  sx_guarded : int array -> unit;
      (** guarded per-point body — the [Sc_guarded] fallback *)
  sx_row : int array -> int -> unit;
      (** flat row body; [Invalid_argument] under [Sc_guarded] *)
}

(** Compile [target[idx] = e] (or [+=] under [accum]) into its guarded
    closure plus schedule class.  Under [Rows] every path —
    interior rows, wavefront rows and guarded points (a row of length 1
    once the write and every read are in bounds) — runs the one
    row-at-a-time evaluator.  A statement splits ([Sc_split]) when
    reordering cannot be observed: the write index covers every
    iteration dimension a read varies along, and any read aliasing
    [target]'s storage uses the write's own index.  A uniformly
    self-dependent statement takes [Sc_wavefront] when a legal
    hyperplane exists; any other is [Sc_guarded].  Under [Interpret]
    the guarded closure is the interpreter's (per-point evaluation
    behind {!guard}) and the class is always [Sc_guarded].  The result
    reuses internal buffers and belongs to one sequential sweep:
    parallel wavefront bands each compile their own instance.
    @raise Unknown_intrinsic on an unknown intrinsic or wrong arity (at
    compile time under [Rows], per point under [Interpret])
    @raise Invalid_argument on unbound names or iterators *)
val compile_stmt :
  schedule:schedule ->
  binder ->
  target:Grid.t ->
  accum:bool ->
  Artemis_dsl.Ast.index list ->
  Artemis_dsl.Ast.expr ->
  stmt_exec
