(** Wavefront (hyperplane) sweep driver for uniform self-dependent
    statements — Gauss-Seidel/SOR sweeps that the split executor would
    otherwise surrender to the guarded per-point path.

    Treating each innermost row as a macro-node, the hyperplane [vec]
    chosen by {!Artemis_static.Static.hyperplane} orders rows so every
    dependence points from an earlier wavefront to a later one.  Rows
    sharing a wavefront are mutually independent, so the flat-index
    unguarded row loop runs inside each wavefront and independent rows
    fan out across {!Artemis_par.Pool}, while the per-row innermost
    order preserves intra-row dependences bit for bit. *)

(** A reusable sweep driver that grows a pool of flat row bodies on
    demand ([make_row] is called once per parallel band, lazily): the
    compiled closures own mutable coordinate and base buffers, so
    concurrent rows each need their own instance. *)
type sweeper

val sweeper : make_row:(unit -> int array -> int -> unit) -> sweeper

(** All innermost rows of [region] grouped into wavefronts by
    [vec . outer]: [f w rows] once per non-empty wavefront in increasing
    [w], rows (outer coordinates) in lexicographic order.  [vec]
    components must be non-negative. *)
val iter_wavefronts :
  region:Region.box -> vec:int array -> (int -> int array array -> unit) -> unit

(** Sweep the [interior] of [region] wavefront by wavefront under
    hyperplane [vec]: each row of the interior runs as one flat row in
    increasing innermost order; wavefronts with enough rows fan out
    across the pool in contiguous bands.  [interior] must be the
    statement's in-bounds sub-box of [region]; the points outside it
    fail the guard and are skipped.  Charges [exec.wavefront_points]
    (the interior) and [exec.eliminated_points] (the rest) on the
    calling domain, so jobs=N is byte-identical to jobs=1. *)
val sweep :
  sweeper -> region:Region.box -> interior:Region.box -> vec:int array -> unit
