(* Cheap measurement-free runtime prediction for a plan, priced by the
   measurement's own time function.

   A full analytic measurement sums exact counters over every block
   class.  Pre-ranking cannot afford
   that per candidate, so this sketches the counters instead: those of
   ONE representative (middle) block scaled to the whole grid.  The
   rest of the workload — occupancy, ILP, geometry, dependence phases —
   and the model ([Timing.evaluate]) are exactly the measurement's, so
   pre-ranking and measurement differ only by sketch error.  Boundary
   blocks see clipped regions, so the sketch is biased slightly high on
   traffic — uniformly across candidates of one kernel, which is what
   ranking needs. *)

module Plan = Artemis_ir.Plan
module Counters = Artemis_gpu.Counters
module Timing = Artemis_gpu.Timing

(** Ranking score (lower is better) and predicted seconds of the timing
    workload with the middle block's counters scaled to the grid.  The
    score is seconds per useful FLOP, not raw time: candidates covering
    different step counts per launch (temporal blocking, fusion) must
    compare on useful throughput — exactly the TFLOPS figure the
    measured search maximizes — or a degree-2 plan doing two sweeps'
    work in 1.5x the time would rank below the plan it beats. *)
let rank (p : Plan.t) =
  let ctx = Traffic.make_ctx p in
  let mid = Array.map (fun n -> n / 2) ctx.geom.grid in
  let c1 = Traffic.block_counters ctx mid in
  let w = Analytic.workload ctx (Counters.scale (float_of_int ctx.geom.total_blocks) c1) in
  let t = (Timing.evaluate p.device w).t_total in
  let useful = w.counters.useful_flops in
  ((if useful > 0.0 then t /. useful else t), t)
