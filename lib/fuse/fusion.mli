(** Kernel fusion (paper, Section VI-A).

    Temporal fusion turns the ping-pong pattern [iterate T { S(out, in);
    swap(out, in) }] into launches of a fused kernel applying S several
    times per sweep; the x-1 intermediate sweeps become scratch arrays in
    the fused body, so halo analysis, staging, traffic, and execution
    treat temporal and spatial (DAG) fusion uniformly. *)

exception Fusion_error of string

(** Fuse [f] applications of a single-step kernel reading [inp] and
    writing [out].  Semantically the composition of [f] sweeps up to
    domain-boundary effects (intermediates are zero where a sweep's guard
    fails), so comparisons are meaningful on the deep interior.
    @raise Fusion_error on unknown arrays or non-positive [f] *)
val time_fuse :
  Artemis_dsl.Instantiate.kernel -> out:string -> inp:string -> f:int ->
  Artemis_dsl.Instantiate.kernel

(** Recognize [Repeat (T, [Launch k; Exchange (out, inp)])]; returns
    [(T, k, out, inp)].  [None] when the body writes both exchanged
    buffers (ambiguous output) or never reads the exchanged input
    (nothing to chain) — either way not a ping-pong; rejections are
    traced as [fusion.pingpong_rejected] with a reason. *)
val pingpong_of_item :
  Artemis_dsl.Instantiate.sched_item ->
  (int * Artemis_dsl.Instantiate.kernel * string * string) option

(** Replace a ping-pong loop with fused launches following [schedule]
    (segment sizes summing to the iteration count), each followed by one
    swap.
    @raise Fusion_error when the schedule does not cover the count *)
val fuse_pingpong :
  int * Artemis_dsl.Instantiate.kernel * string * string ->
  schedule:int list -> Artemis_dsl.Instantiate.sched_item list

(** {1 Degree-N temporal blocking (AN5D)}

    [degree] inner time steps per sweep over the streamed outer
    dimension, alternating between the two ping-pong buffers
    (associative double-buffering).  The kernel body is not rewritten —
    blocking is an execution-strategy dimension carried as
    [Plan.temporal]. *)

(** Why blocking the loop is forbidden, if it is: a statement with a
    self-dependence (Gauss-Seidel/SOR), or a body reading the produced
    buffer.  [None] means blocking is legal at any degree. *)
val block_illegal :
  Artemis_dsl.Instantiate.kernel -> out:string -> inp:string -> string option

val block_legal :
  Artemis_dsl.Instantiate.kernel -> out:string -> inp:string -> bool

(** Per-step plane skew of the streamed interleaved traversal: max
    |stream-dimension read shift|, at least 1. *)
val stream_skew : Artemis_dsl.Instantiate.kernel -> int

(** The body admits the streamed interleaved traversal (single covering
    assign to [out], per-point temporaries only, reads only [inp]);
    other legal bodies block exactly through the per-step fallback. *)
val stream_legal :
  Artemis_dsl.Instantiate.kernel -> out:string -> inp:string -> bool
