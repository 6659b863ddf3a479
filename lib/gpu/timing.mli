(** Bottleneck execution-time model — the simulator's clock.

    A kernel is bound by whichever resource pipe (DP compute, DRAM,
    texture/L2, shared memory) needs the most time, each derated by an
    achievable-utilization factor (arithmetic and shared pipes need
    enough warps x ILP to cover issue latency; memory pipes saturate at
    moderate occupancy), plus a synchronization-stall term.  This mirrors
    the roofline-plus-latency reasoning of the paper's Section IV. *)

type breakdown = {
  t_compute : float;
  t_dram : float;
  t_tex : float;
  t_shm : float;
  t_sync : float;
  t_wave : float;  (** wavefront phase-transition overhead, seconds *)
  t_total : float;  (** seconds *)
  utilization_lat : float;  (** latency-hiding factor in [0, 1] *)
  bottleneck : bound;
}

and bound =
  | Compute_bound
  | Dram_bound
  | Tex_bound
  | Shm_bound
  | Latency_bound
  | Wavefront_bound
      (** dependence-phase serialization dominates every resource pipe *)

val bound_to_string : bound -> string

(** Everything the model needs about one kernel launch. *)
type workload = {
  counters : Counters.t;
  occupancy : Occupancy.result;
  ilp : float;  (** independent instructions per thread between dependences *)
  blocks : int;  (** total thread blocks launched *)
  threads_per_block : int;
  prefetch : bool;  (** load/compute overlap enabled (Section III-A4) *)
  serial_waves : int;
      (** dependence-forced launch phases (wavefront kernel class): 1 =
          fully independent blocks; same bytes/flops, but only one
          phase's blocks run concurrently and each phase transition
          costs a device round trip *)
}

(** Evaluate the model; spill traffic is charged to the DRAM and L2
    pipes, prefetching discounts the synchronization stall.  A
    zero-occupancy workload gets infinite time. *)
val evaluate : Device.t -> workload -> breakdown

(** Achieved useful TFLOPS — the figure of merit the paper plots. *)
val tflops : workload -> breakdown -> float

