(** Hierarchical autotuning (paper, Section V): tune in steps instead of
    exploring the cross product of every knob.

    Phase 1 sweeps the high-impact parameters (thread-block shape, unroll
    vectors), stepping maxrregcount so only spill-free configurations
    run; phase 2 toggles the refinements (prefetching, concurrent
    streaming, perspective, distribution, retiming, folding) on the top
    phase-1 candidates.  Profiling decisions prune both phases. *)

type record = {
  best : Artemis_exec.Analytic.measurement;
  explored : int;  (** configurations measured *)
  phase1_best : Artemis_exec.Analytic.measurement;
  history : (string * float) list;  (** plan label -> TFLOPS, best first *)
}

(** Which refinements the tuner may explore — the user-definable
    optimization hierarchy of Section V. *)
type knobs = {
  try_unroll : bool;
  try_prefetch : bool;
  try_concurrent : bool;
  try_perspective : bool;
  try_retime : bool;
  try_fold : bool;
  unroll_bound : int;  (** 8 bandwidth-bound / 4 compute-bound *)
  top_n : int;  (** phase-1 candidates promoted to phase 2 *)
  max_degree : int;
      (** largest temporal-blocking degree phase 2 may try (1 = off);
          explored only when the base plan names its ping-pong pair *)
  prerank_keep : float;
      (** percentage of each candidate batch the pre-rank ([Predict])
          keeps for measurement; >= 100 measures every candidate *)
}

val default_knobs : knobs

(** Default of the knobs' [prerank_keep]: the percentage of each
    candidate batch kept for full analytic measurement after scoring
    with the measurement-free one-block sketch ([Predict]).
    Values >= 100 disable the filter.  The default is calibrated so the
    chosen plan is unchanged on the committed suite while most
    measurements are skipped (see BENCH_tuner.json's prerank rows and
    `make model-smoke`). *)
val default_prerank_keep : float

(** Derive knob settings from the profiler's guideline decisions
    (Section IV-A): unrolling off under register pressure or for
    compute-bound kernels, register-level refinements on when
    shared-memory bound. *)
val knobs_of_decisions : Artemis_profile.Hints.decisions -> knobs

(** Measure with the non-spill register-stepping rule (falls back to 255
    with spills so register-doomed kernels remain measurable). *)
val measure_stepped :
  Artemis_ir.Plan.t -> Artemis_exec.Analytic.measurement option

(** Phase 2's expansion of promoted candidates into their refinement
    variants (prefetch, perspective, retiming, concurrent streaming,
    folding, temporal degrees), in canonical order.  Every retimed
    variant built from one kernel value carries one shared retimed
    kernel value. *)
val variants : knobs -> Artemis_ir.Plan.t list -> Artemis_ir.Plan.t list

(** Tune a base plan (its scheme, placement, and kernel are fixed; block,
    unroll, and refinements vary).  [None] only when no valid
    configuration exists at all. *)
val tune : ?knobs:knobs -> Artemis_ir.Plan.t -> record option
