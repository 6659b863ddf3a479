(* Cheap measurement-free runtime prediction for a plan: the adapter
   between [Plan.t] and the warp-level estimator in [Warp_model].

   A full analytic measurement validates the plan, lints it, and sums
   exact counters over every block class.  Pre-ranking cannot afford
   that per candidate, so this sketches the workload instead: counters
   of ONE representative (middle) block scaled to the whole grid, plus
   the plan's static resource picture.  Boundary blocks see clipped
   regions, so the sketch is biased slightly high on traffic — uniformly
   across candidates of one kernel, which is what ranking needs. *)

module Plan = Artemis_ir.Plan
module Counters = Artemis_gpu.Counters
module Warp_model = Artemis_gpu.Warp_model

(** Warp-model inputs sketched from a plan without measuring it.
    @raise Invalid_argument on plans whose geometry cannot be built. *)
let inputs_of_plan (p : Plan.t) =
  let ctx = Traffic.make_ctx p in
  let mid = Array.map (fun n -> n / 2) ctx.Traffic.geom.grid in
  let c1 = Traffic.block_counters ctx mid in
  let scale = float_of_int ctx.Traffic.geom.total_blocks in
  let c = Counters.scale scale c1 in
  {
    Warp_model.occupancy = ctx.Traffic.res.occupancy;
    ilp = ctx.Traffic.res.ilp;
    blocks = ctx.Traffic.geom.total_blocks;
    threads_per_block = Plan.threads_per_block p;
    useful_flops = c.useful_flops;
    total_flops = c.total_flops;
    dram_bytes = c.dram_bytes +. c.spill_bytes;
    sectors = c.gld_transactions +. c.gst_transactions;
    shm_bytes = c.shm_bytes;
    syncs_per_block = c1.syncs;
    prefetch = p.prefetch;
    serial_waves = ctx.Traffic.serial_waves;
  }

(** The warp model's prediction alongside its inputs; [None] for plans
    the sketch cannot price (unlaunchable geometry, zero occupancy). *)
let sketch (p : Plan.t) =
  match inputs_of_plan p with
  | w -> Some (w, Warp_model.predict p.device w)
  | exception (Invalid_argument _ | Division_by_zero | Not_found) -> None

(** Predicted runtime of a plan in seconds; [infinity] for plans the
    sketch cannot price — they sort last, exactly where the measurement
    path would reject them. *)
let time_s (p : Plan.t) =
  match sketch p with
  | Some (_, pr) -> pr.Warp_model.time_s
  | None -> infinity

(** Ranking score (lower is better) and predicted seconds.  The score is
    seconds per useful FLOP, not raw time: candidates covering different
    step counts per launch (temporal blocking, fusion) must compare on
    useful throughput — exactly the TFLOPS figure the measured search
    maximizes — or a degree-2 plan doing two sweeps' work in 1.5x the
    time would rank below the plan it beats. *)
let rank (p : Plan.t) =
  match sketch p with
  | Some (w, pr) ->
    let score =
      if w.useful_flops > 0.0 then pr.Warp_model.time_s /. w.useful_flops
      else pr.Warp_model.time_s
    in
    (score, pr.Warp_model.time_s)
  | None -> (infinity, infinity)

(** Full prediction alongside its inputs, for explain/report surfaces. *)
let predict = sketch
