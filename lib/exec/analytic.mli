(** Analytic evaluation of a plan — counters, timing, and achieved TFLOPS
    without touching data.

    Exact closed-form sums of the same per-block accounting the executor
    performs (via [Traffic]), so evaluating a full-size 512^3 launch
    costs microseconds.  The profiler, the autotuner, and the benchmark
    harness all sit on this. *)

type measurement = {
  plan : Artemis_ir.Plan.t;
  counters : Artemis_gpu.Counters.t;
  resources : Artemis_ir.Estimate.resources;
  breakdown : Artemis_gpu.Timing.breakdown;
  time_s : float;
  tflops : float;  (** useful FLOPs / time *)
}

(** The timing model's view of a priced launch: occupancy, ILP, block
    count, threads per block, prefetch and dependence phases from the
    context, with the given whole-grid counters.  The one builder of
    [Timing.workload]: measurement passes the exact class sum,
    pre-ranking ([Predict]) the scaled one-block sketch, and code
    differencing a variant's reduced counters. *)
val workload : Traffic.ctx -> Artemis_gpu.Counters.t -> Artemis_gpu.Timing.workload

(** Measure a plan.
    @raise Invalid_argument when the plan violates device limits. *)
val measure : Artemis_ir.Plan.t -> measurement

(** [None] instead of raising on invalid plans — the shape tuning loops
    want. *)
val try_measure : Artemis_ir.Plan.t -> measurement option

