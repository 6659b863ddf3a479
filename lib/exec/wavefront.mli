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

(** One executor instance: compiled closures own mutable coordinate and
    base buffers, so concurrent rows each need their own instance. *)
type exec = {
  we_guarded : int array -> unit;  (** guarded per-point body *)
  we_row : int array -> int -> unit;  (** unguarded flat row body *)
}

(** A reusable sweep driver that grows a pool of executor instances on
    demand ([make_exec] is called once per parallel band, lazily). *)
type sweeper

val sweeper : make_exec:(unit -> exec) -> sweeper

(** All innermost rows of [region] grouped into wavefronts by
    [vec . outer]: [f w rows] once per non-empty wavefront in increasing
    [w], rows (outer coordinates) in lexicographic order.  [vec]
    components must be non-negative. *)
val iter_wavefronts :
  region:Region.box -> vec:int array -> (int -> int array array -> unit) -> unit

(** Sweep [region] wavefront by wavefront under hyperplane [vec]:
    each row runs a guarded prefix, the flat unguarded segment clipped
    by [interior], and a guarded suffix, in increasing innermost order;
    wavefronts with enough rows fan out across the pool in contiguous
    bands.  Charges [exec.wavefront_points] (flat segments) and
    [exec.halo_points] (guarded remainder) on the calling domain, so
    jobs=N is byte-identical to jobs=1.

    [elide] (default false) asserts a static proof that every region
    point outside [interior] is a guard-failing no-op: the sweep shrinks
    to the interior box (every row fully flat) and the skipped points
    are charged to [exec.eliminated_points].  Wavefront numbering by
    [vec . outer] is translation-invariant, so the executed points keep
    their relative order and the output stays bit-identical. *)
val sweep :
  ?elide:bool ->
  sweeper ->
  region:Region.box ->
  interior:Region.box ->
  vec:int array ->
  unit
