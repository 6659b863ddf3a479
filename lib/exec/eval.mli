(** Expression evaluation at a domain point — shared by the reference
    executor and the block executor so both compute identical values.

    The executors evaluate through {!compile_stmt}'s flat-index row
    evaluator; the point-wise interpreter ({!eval}/{!guard}, under
    {!use_interpreter}) is the reference it is checked against. *)

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

(** @raise Unknown_intrinsic on an unknown name or wrong arity. *)
val apply_intrinsic : string -> float list -> float

(** Evaluate at a point. @raise Out_of_bounds per above. *)
val eval : env -> int array -> Artemis_dsl.Ast.expr -> float

(** All array reads of the expression are in bounds at the point — the
    guard the generated CUDA emits. *)
val guard : env -> int array -> Artemis_dsl.Ast.expr -> bool

(** {1 Schedule switches} *)

(** When set, {!compile_stmt} runs every statement point by point
    through {!eval}/{!guard} (classified [Sc_guarded]) instead of the
    row evaluator — the point-wise reference the differential tests and
    the fuzz oracle compare against.  Results are bit-identical either
    way. *)
val use_interpreter : bool ref

(** When set (the default), statements whose self-dependences are
    uniform sweep through the wavefront schedule ({!Wavefront}) instead
    of falling back to the guarded per-point path.  Results are
    bit-identical either way — pinned by the fuzz oracle. *)
val use_wavefront : bool ref

(** Splitting is active: not {!use_interpreter} (the interpreter
    reference must stay pure per-point). *)
val split_enabled : unit -> bool

(** The wavefront schedule is active: {!use_wavefront} (or a scoped
    {!with_wavefront} override) and {!split_enabled}. *)
val wavefront_enabled : unit -> bool

(** [with_wavefront v f] runs [f] with the wavefront schedule forced to
    [v] on the calling domain only (domain-scoped, so the fuzz oracle
    can flip it inside pool workers without racing concurrent cases). *)
val with_wavefront : bool -> (unit -> 'a) -> 'a

(** Static guard elimination is active: on unless a scoped
    {!with_static_elim} override clears it, and {!split_enabled}.  The
    executors then skip boundary shells (and wavefront exteriors) whose
    points the affine analyzer ({!Artemis_static.Static}) proves to be
    guard-failing no-ops, charging them to [exec.eliminated_points]
    instead of sweeping them.  Elimination only engages where the
    analyzer's independently computed footprint agrees exactly with the
    executor's own clipping ({!elim_proven}); results are bit-identical
    either way. *)
val static_elim_enabled : unit -> bool

(** [with_static_elim v f] runs [f] with static elimination forced to
    [v] on the calling domain only (same discipline as
    {!with_wavefront}). *)
val with_static_elim : bool -> (unit -> 'a) -> 'a

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

val access_path : binder -> Grid.t -> Artemis_dsl.Ast.index list -> access_path

(** Recompute [ap_base] for the row starting at [point] (closed form, no
    allocation). *)
val path_bind_row : access_path -> int array -> unit

(** Intersect an iteration-space box with the region where every access
    of [paths] is in bounds — exactly the set the statement's guard
    accepts, which is itself a box.  A constant index outside its extent
    empties the result. *)
val clip_in_bounds : access_path list -> Region.box -> Region.box

(** A statement lowered for split execution. *)
type split_stmt = {
  ss_write : access_path;
  ss_expr : flat;
  ss_paths : access_path list;
      (** write plus reads — the in-bounds constraints for {!split_interior} *)
}

(** The statement's expression compiled for row-at-a-time evaluation:
    row-invariant subtrees run once per row, the rest as one loop per
    operation over the row.  Rows whose reads may see a cell written
    earlier in the same row (wavefront schedules, or a write that does
    not move along the row) evaluate one point at a time through the
    same program. *)
and flat

(** The sub-box of [region] where every access of the statement is in
    bounds (its unguarded interior). *)
val split_interior : split_stmt -> Region.box -> Region.box

(** True when static elimination is enabled and the affine analyzer,
    recomputing the statement's in-bounds footprint from the raw
    (extents, spec) pairs, lands on exactly [interior] (the executor's
    own {!clip_in_bounds} box for [region]).  Every region point outside
    [interior] is then provably a guard-failing no-op, so the shells can
    be skipped — two independent engines must agree before any guard is
    dropped; disagreement falls back to sweeping them. *)
val elim_proven :
  split_stmt -> region:Region.box -> interior:Region.box -> bool

(** {1 Unified statement compilation}

    One entry point deciding how a statement sweeps: order-independent
    statements split (interior rows + guarded shells), uniform
    self-dependent statements take the wavefront schedule under a legal
    hyperplane, everything else stays guarded per point. *)

type stmt_class =
  | Sc_split of split_stmt  (** order-independent: interior/halo split *)
  | Sc_wavefront of split_stmt * int array
      (** uniform self-dependence under the given outer-dimension
          hyperplane ({!Wavefront.sweep}) *)
  | Sc_guarded  (** whole-region guarded per-point fallback *)

type stmt_exec = {
  sx_class : stmt_class;
  sx_guarded : int array -> unit;
      (** guarded per-point body — shells, wavefront row ends, fallback *)
  sx_row : int array -> int -> unit;
      (** flat row body; [Invalid_argument] under [Sc_guarded] *)
}

(** Uniform self-dependence distances (read point minus write point) of
    a statement from its physical access paths, or [None] when the
    wavefront schedule does not apply (write does not cover every
    iteration dimension, or a target-aliased read is not a constant
    offset of the write). *)
val self_deltas :
  rank:int ->
  target:Grid.t ->
  wspec:(int * int) array ->
  access_path list ->
  int array list option

(** Compile [target[idx] = e] (or [+=] under [accum]) into its guarded
    closure plus schedule class.  Under {!split_enabled} every path —
    interior rows, wavefront rows and guarded points (a row of length 1
    once the write and every read are in bounds) — runs the one
    row-at-a-time evaluator.  A statement splits ([Sc_split]) when
    reordering cannot be observed: the write index covers every
    iteration dimension a read varies along, and any read aliasing
    [target]'s storage uses the write's own index.  Otherwise the guarded
    closure is the interpreter's ({!eval}/{!guard}) and the class is
    [Sc_guarded].  The result reuses internal buffers and belongs to one
    sequential sweep: parallel wavefront bands each compile their own
    instance.
    @raise Unknown_intrinsic on an unknown intrinsic or wrong arity (at
    compile time under {!split_enabled}, per point otherwise)
    @raise Invalid_argument on unbound names or iterators *)
val compile_stmt :
  binder ->
  target:Grid.t ->
  accum:bool ->
  Artemis_dsl.Ast.index list ->
  Artemis_dsl.Ast.expr ->
  stmt_exec
