(* Code differencing (paper, Section IV, Listings 2-3): to decide whether
   a near-roofline kernel is really bandwidth-bound at level M, generate a
   variant V' whose accesses to M are drastically reduced — confining
   every global array to one block-sized footprint, as Listing 3 does by
   rewriting [in\[k\]\[j\]\[i\]] to [in\[0\]\[j-j0\]\[i-i0\]] — and compare
   simulated times.  A significant speedup of V' convicts M. *)

module Plan = Artemis_ir.Plan
module Counters = Artemis_gpu.Counters
module Timing = Artemis_gpu.Timing
module Analytic = Artemis_exec.Analytic

(* Variant counters with accesses to [level] reduced to the one-block
   footprint (the simulator equivalent of Listing 3's index rewriting). *)
let reduce_level (level : Classify.level) (p : Plan.t) (c : Counters.t) =
  let blocks = float_of_int (Artemis_ir.Launch.geometry p).total_blocks in
  match level with
  | Classify.Dram ->
    (* every block touches only its own 32x32-ish window: DRAM traffic
       collapses to one tile per array, i.e. ~1/blocks of the original *)
    { c with dram_bytes = c.dram_bytes /. Float.max blocks 1.0 }
  | Classify.Tex -> { c with tex_bytes = c.tex_bytes /. Float.max blocks 1.0 }
  | Classify.Shm -> { c with shm_bytes = 0.0 }

type result = {
  original_time : float;
  reduced_time : float;
  speedup : float;
  bound : bool;  (** the level was the bottleneck *)
}

(* A variant must improve by at least this factor for the level to be
   declared the bottleneck. *)
let threshold = 1.15

(** Run the differencing experiment for [level] on a measured plan. *)
let test (m : Analytic.measurement) (level : Classify.level) =
  let reduced = reduce_level level m.plan m.counters in
  let workload = Analytic.workload (Artemis_exec.Traffic.make_ctx m.plan) reduced in
  let b = Timing.evaluate m.plan.device workload in
  let speedup = if b.t_total > 0.0 then m.time_s /. b.t_total else 1.0 in
  {
    original_time = m.time_s;
    reduced_time = b.t_total;
    speedup;
    bound = speedup >= threshold;
  }

(** Resolve an [Ambiguous] verdict: differencing at the ambiguous level,
    upgrading to [Bandwidth_bound] or falling back to compute/latency. *)
let resolve (m : Analytic.measurement) (prof : Classify.profile) =
  match prof.verdict with
  | Classify.Ambiguous level ->
    let r = test m level in
    if r.bound then { prof with verdict = Classify.Bandwidth_bound [ level ] }
    else if prof.achieved_fraction >= 0.5 then
      { prof with verdict = Classify.Compute_bound }
    else { prof with verdict = Classify.Latency_bound }
  | Classify.Bandwidth_bound _ | Classify.Compute_bound | Classify.Latency_bound ->
    prof
