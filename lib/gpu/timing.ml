(* Bottleneck execution-time model (the simulator's clock).

   The paper's profiling methodology (Section IV) treats a kernel as
   bound by whichever resource pipe — DP compute, DRAM, texture/L2,
   shared memory — needs the most time, or as latency-bound when low
   occupancy and ILP leave the pipes under-supplied.  The model mirrors
   that structure directly:

     t = max(pipe times, each divided by an achievable-utilization
         factor) + synchronization overhead

   Utilization factors: arithmetic and shared-memory pipes need enough
   concurrent warps to cover the arithmetic latency (occupancy x ILP);
   the DRAM and L2 pipes saturate at moderate occupancy because each
   warp can keep many transactions in flight.  Register spills add their
   traffic to the DRAM and L2 pipes (local memory is cached in L2). *)

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

let bound_to_string = function
  | Compute_bound -> "compute"
  | Dram_bound -> "DRAM bandwidth"
  | Tex_bound -> "texture/L2 bandwidth"
  | Shm_bound -> "shared-memory bandwidth"
  | Latency_bound -> "latency"
  | Wavefront_bound -> "wavefront serialization"

type workload = {
  counters : Counters.t;
  occupancy : Occupancy.result;
  ilp : float;  (** independent instructions per thread between dependences *)
  blocks : int;  (** total thread blocks launched *)
  threads_per_block : int;
  prefetch : bool;  (** load/compute overlap enabled (Section III-A4) *)
  serial_waves : int;
      (** dependence-forced launch phases (wavefront kernel class):
          1 = fully independent blocks; bytes/flops unchanged, but only
          one phase's blocks run concurrently and each phase transition
          costs a device round trip *)
}

(* Cost of one wavefront phase transition: a grid-wide dependence fence,
   about a kernel-launch latency. *)
let wave_latency_s = 2.0e-6

(* Cost of one __syncthreads in cycles: barrier latency plus re-convergence,
   mildly increasing with warps per block. *)
let sync_cycles (d : Device.t) threads_per_block =
  let warps = float_of_int ((threads_per_block + d.warp_size - 1) / d.warp_size) in
  30.0 +. (2.0 *. warps)

(** Latency-hiding utilization: the fraction of peak issue rate achieved
    given active warps per scheduler and per-thread ILP.  Full hiding
    needs roughly [dp_latency] independent warps-instructions per
    scheduler slot. *)
let latency_utilization (d : Device.t) (occ : Occupancy.result) ~ilp =
  if occ.active_threads = 0 then 0.0
  else begin
    let warps_per_sm = float_of_int occ.active_threads /. float_of_int d.warp_size in
    let per_scheduler = warps_per_sm /. float_of_int d.schedulers_per_sm in
    Float.min 1.0 (per_scheduler *. ilp /. d.dp_latency_cycles)
  end

(* Memory pipes saturate with fewer warps than the ALU: model a knee at
   25 % occupancy, a common rule of thumb for Pascal-class devices. *)
let memory_utilization (occ : Occupancy.result) =
  if occ.active_threads = 0 then 0.0 else Float.min 1.0 (occ.occupancy /. 0.25)

(** Evaluate the model.  [w.counters.spill_bytes] is charged to both DRAM
    and L2 pipes; [w.prefetch] discounts the synchronization stall to
    reflect load/compute overlap. *)
let evaluate (d : Device.t) (w : workload) =
  let c = w.counters in
  let u_lat0 = latency_utilization d w.occupancy ~ilp:w.ilp in
  let u_mem0 = memory_utilization w.occupancy in
  if u_lat0 = 0.0 || u_mem0 = 0.0 then
    {
      t_compute = infinity; t_dram = infinity; t_tex = infinity; t_shm = infinity;
      t_sync = infinity; t_wave = infinity; t_total = infinity;
      utilization_lat = 0.0; bottleneck = Latency_bound;
    }
  else begin
    let concurrent_blocks =
      max 1 (w.occupancy.blocks_per_sm * d.sms)
    in
    (* Wavefront kernel class: the block grid decomposes into dependence
       phases; only one phase's blocks are in flight at a time, so when a
       phase holds fewer blocks than the device could run concurrently
       every pipe's achievable utilization drops proportionally — same
       bytes and flops, less parallelism to hide them with. *)
    let phases = max 1 (min w.serial_waves (max 1 w.blocks)) in
    let blocks_per_phase = (w.blocks + phases - 1) / phases in
    let f_par =
      if phases = 1 then 1.0
      else
        Float.min 1.0
          (float_of_int (max 1 blocks_per_phase)
          /. float_of_int concurrent_blocks)
    in
    let u_lat = u_lat0 *. f_par in
    let u_mem = u_mem0 *. f_par in
    let t_compute_raw = c.total_flops /. d.peak_dp_flops in
    let t_compute = t_compute_raw /. u_lat in
    let t_dram = (c.dram_bytes +. c.spill_bytes) /. (d.dram_bw *. u_mem) in
    let t_tex = (c.tex_bytes +. c.spill_bytes) /. (d.tex_bw *. u_mem) in
    let t_shm = c.shm_bytes /. (d.shm_bw *. u_lat) in
    (* Synchronization: barriers serialize warps within a block; concurrent
       blocks on an SM overlap each other's stalls.  Waves = launches of
       blocks_per_sm x sms blocks, per dependence phase. *)
    let waves =
      float_of_int phases
      *. ceil (float_of_int blocks_per_phase /. float_of_int concurrent_blocks)
    in
    let syncs_per_block =
      if w.blocks = 0 then 0.0 else c.syncs /. float_of_int w.blocks
    in
    let stall_discount = if w.prefetch then 0.4 else 1.0 in
    let t_sync =
      waves *. syncs_per_block
      *. sync_cycles d w.threads_per_block
      *. stall_discount
      /. (d.clock_ghz *. 1e9)
    in
    let t_wave = float_of_int (phases - 1) *. wave_latency_s in
    let pipe_times =
      [ (t_compute, Compute_bound); (t_dram, Dram_bound); (t_tex, Tex_bound);
        (t_shm, Shm_bound) ]
    in
    let t_max, which =
      List.fold_left
        (fun (tm, wb) (t, b) -> if t > tm then (t, b) else (tm, wb))
        (0.0, Latency_bound) pipe_times
    in
    let bottleneck =
      (* If the binding pipe only binds because of poor latency hiding
         (the raw pipe time would not bind), the kernel is latency-bound,
         matching the paper's third category.  When the phase-transition
         overhead itself dominates every pipe, the kernel is wavefront
         bound — serialization, not any resource, sets the clock. *)
      if t_wave > t_max then Wavefront_bound
      else
        match which with
        | Compute_bound
          when u_lat < 0.95 && t_compute_raw < t_dram && t_compute_raw < t_tex
          -> Latency_bound
        | b -> b
    in
    let t_total = t_max +. t_sync +. t_wave in
    {
      t_compute; t_dram; t_tex; t_shm; t_sync; t_wave; t_total;
      utilization_lat = u_lat; bottleneck;
    }
  end

(** Achieved useful TFLOPS — the figure of merit every plot in the paper
    reports. *)
let tflops (w : workload) (b : breakdown) =
  if b.t_total = 0.0 || b.t_total = infinity then 0.0
  else w.counters.useful_flops /. b.t_total /. 1e12

