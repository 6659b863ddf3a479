(** Counter accounting for one kernel launch under a plan.

    Every quantity derives from the launch geometry and staging layout
    ([Launch]), so the block executor and the whole-grid analytic
    evaluator charge exactly the same traffic.  Regions are axis-aligned
    boxes (per-block counts are products of 1-D interval lengths); global
    transactions are counted row-by-row through the coalescing model;
    DRAM traffic follows a working-set L2 model (which is what makes
    streaming-without-shared-memory lose to plain tiling, Section
    VIII-F). *)

(** The constants of the DRAM/L2 model.  Pricing reads them from the
    plan's device ([Device.halo_miss], [Device.l2_hit_floor]), next to
    its [l2_bytes]; vary them per device record, e.g.
    [{ dev with halo_miss }]. *)
type model = {
  halo_miss : float;  (** fraction of a block's halo footprint missing L2 *)
  l2_hit_floor : float;  (** residual miss rate when the working set fits *)
}

(** The P100's constants ([Device.p100]), for reports that name the
    calibration without a device. *)
val default_model : model

(** Per-statement static description: a function of the kernel alone,
    built once per kernel value in the one per-kernel table, with the
    self-dependence dimensions (from [Artemis_ir.Kernel_facts]), the
    array strides and the staging parts. *)
type stmt_info = {
  stmt : Artemis_dsl.Ast.stmt;
  flops : int;
  writes : string;
  write_is_final : bool;
  write_is_array : bool;
  region_ext : Artemis_dsl.Analysis.extent;  (** tile extension this statement covers *)
  guard_ext : Artemis_dsl.Analysis.extent;  (** min/max read shifts *)
  reads : (string * int array * int) list;
      (** distinct (array, iterator offset) reads in first-occurrence
          order, each with its number of textual occurrences *)
}

(** One globally read array's reads in one statement, charged
    together: their total uses, the bounding box of their offsets, and
    their uses per innermost-offset sector residue. *)
type group

(** Where a statement's result is stored under the plan. *)
type store

(** A staged buffer's once-per-block load. *)
type load

(** A statement as one plan prices it: fold savings, guard region, store
    and read classification are settled once per staging layout, so
    per-block accounting does no lookups.  Reads are charged in bulk:
    the shared loads of unretimed staged reads as one use count, the
    retimed in-plane reads as their ids, and the global reads as one
    {!group} per array in first-read order.

    Grouping is exact.  Every counter addition is an integer-valued
    float far below 2{^53}, so a sum of uses charged at once equals the
    same uses charged one read at a time.  A read's region is the
    statement's region for every read of the statement, so the union of
    an array's shifted read boxes is that region shifted by the bounding
    box of the offsets.  A read's sector count depends on its offset
    only through the innermost offset's residue modulo a sector when the
    array's rows start sector-aligned (the guard keeps every read index
    non-negative), and not at all when they do not.  The per-array L2
    bookkeeping sees its arrays in the same order. *)
type stmt_cost = {
  info : stmt_info;
  saved_flops : int;  (** combine ops moved to staging by folding *)
  guard : (int * int) array;  (** region where the statement's guard holds *)
  store : store;
  shared_uses : int;  (** shared loads per point of the unretimed staged reads *)
  shared_once : int array;  (** retimed in-plane read ids, loaded once per body *)
  groups : group array;  (** globally read arrays, in first-read order *)
}

type ctx = {
  plan : Artemis_ir.Plan.t;
  geom : Artemis_ir.Launch.geometry;
  bufs : Artemis_ir.Launch.buffer list;
  res : Artemis_ir.Estimate.resources;
  stmts : stmt_cost array;
  loads : load array;
  global_arrays : string array;  (** arrays read from global memory *)
  inplane_reads : int;  (** distinct retimed in-plane reads *)
  concurrent_blocks : int;
  serial_waves : int;
      (** launch phases forced by self-dependences ([Wavefront]): 1 =
          fully independent blocks; a dependence along a grid dimension
          serializes the block grid into anti-diagonal phases — same
          bytes and flops, reduced parallelism per phase *)
  no_shift : int array;  (** zero offset: an unshifted box *)
}

(** Price a plan's launch in two parts.

    The staging part is [bufs], [stmts], [loads], [global_arrays],
    [inplane_reads] and [no_shift]: the staging layout, each statement's
    store, read classification, fold savings and guard, and the
    once-per-block loads.  It depends on the kernel and on the plan's
    placement, stream dimension ([Plan.stream_dim]), retiming and
    folding only, and is memoized under exactly that key in the
    per-kernel table ([Artemis_dsl.Kernel_memo], so per domain):
    candidates that differ in block, unroll, stream chunk, perspective,
    prefetch, register cap or temporal blocking share one physically.

    The per-candidate part is the geometry, the resources,
    [concurrent_blocks] and [serial_waves]. *)
val make_ctx : Artemis_ir.Plan.t -> ctx

(** {1 Box arithmetic} *)

(** Inclusive (lo, hi) per dimension; empty when hi < lo. *)
type box = (int * int) array

val box_volume : box -> int
val box_inter : box -> box -> box

(** The block's output tile, clipped to the domain. *)
val tile_box : ctx -> int array -> box

(** Extend a box by an extent, clipping to the domain, into a
    caller-owned scratch box. *)
val extend_clip_into :
  ctx -> box -> Artemis_dsl.Analysis.extent -> box -> unit

(** {1 Accounting} *)

(** One evaluator prices a block for all three entry points below.  A
    call tabulates, per dimension and block class, the intervals of the
    tile, of each staged load and of each statement's region (and their
    overlaps with the tile), then evaluates blocks from those intervals
    in scratch owned by the calling domain, without allocating a box. *)

(** Counters charged to one block. *)
val block_counters : ctx -> int array -> Artemis_gpu.Counters.t

(** The block classes [total_counters] sums over: per dimension, each
    class's representative block coordinate and block count.  A class is
    one block near a face (as far in as a halo, an extended region or a
    guard reaches, and on tiled plans a halo-recompute trapezoid), or the
    middle blocks together, priced by one representative. *)
val classes : ctx -> (int * int) list array

(** Whole-launch counters: [block_counters] summed over [classes ctx],
    each scaled by its block count, dimension 0 outermost.  [exact]
    makes every block its own class.  Classes that look the same to a
    block's accounting (the same intervals relative to the tile, the
    same sector alignment, the same clipping of temporal trapezoids)
    share one evaluation; the sum is bit-identical to evaluating each.
    The class sum and the exact sum agree to rounding when the middle
    blocks see the clipping and row alignment of their representative;
    tests check it on tiled suite plans at partial-tile sizes, temporal
    degrees included.  Streamed halo-recompute plans whose tiles are
    narrower than degree x halo are a known exception: the
    representative's trapezoid is clipped where its blocks' are not. *)
val total_counters : ?exact:bool -> ctx -> Artemis_gpu.Counters.t
