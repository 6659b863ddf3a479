(* Analytic evaluation of a plan: counters, timing, and achieved TFLOPS
   without touching any data — exact closed-form sums of the same per-block
   accounting the executor performs, so full-size (512^3 / 320^3) runs cost
   microseconds.  This is the function the profiler, the autotuner, and the
   benchmark harness all sit on. *)

module Plan = Artemis_ir.Plan
module Validate = Artemis_ir.Validate
module Estimate = Artemis_ir.Estimate
module Counters = Artemis_gpu.Counters
module Timing = Artemis_gpu.Timing
module Metrics = Artemis_obs.Metrics

let m_measures = Metrics.counter "exec.analytic_measures"

type measurement = {
  plan : Plan.t;
  counters : Counters.t;
  resources : Estimate.resources;
  breakdown : Timing.breakdown;
  time_s : float;
  tflops : float;
}

(* The timing model's view of a priced launch: [ctx]'s resources,
   geometry and dependence phases with whole-grid [counters]. *)
let workload (ctx : Traffic.ctx) counters =
  {
    Timing.counters;
    occupancy = ctx.res.occupancy;
    ilp = ctx.res.ilp;
    blocks = ctx.geom.total_blocks;
    threads_per_block = Plan.threads_per_block ctx.plan;
    prefetch = ctx.plan.prefetch;
    serial_waves = ctx.serial_waves;
  }

(* Measure a plan already known to be launchable. *)
let measure_valid (plan : Plan.t) =
  Metrics.incr m_measures;
  let ctx = Traffic.make_ctx plan in
  let counters = Traffic.total_counters ctx in
  let workload = workload ctx counters in
  let breakdown = Timing.evaluate plan.device workload in
  {
    plan;
    counters;
    resources = ctx.res;
    breakdown;
    time_s = breakdown.t_total;
    tflops = Timing.tflops workload breakdown;
  }

(** Measure a plan analytically.
    @raise Invalid_argument when the plan violates device limits. *)
let measure plan =
  Validate.check plan;
  measure_valid plan

(** Measure, returning [None] instead of raising on invalid plans — the
    shape the tuner's search loops want.  Validates once. *)
let try_measure plan =
  match Validate.violations plan with
  | [] -> (
    try Some (measure_valid plan) with
    | Invalid_argument _ | Kernel_exec.Unsupported _ -> None)
  | _ :: _ -> None

