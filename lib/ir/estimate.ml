(* Static resource estimation for a plan: per-thread register pressure,
   ILP, and dynamic instruction counts.  The register model is a
   calibrated heuristic — what matters for reproducing the paper is the
   *decision structure* it induces: complex spatial kernels land in the
   128-255 register band (12.5-25 % occupancy, Section VIII-C), the
   rhs4sgcurv maxfuse kernel exceeds 255 and spills (Section VIII-D),
   and unrolling multiplies pressure so the tuner must step maxrregcount
   upward (Section V). *)

type resources = {
  regs_per_thread : int;  (** estimated spill-free requirement (32-bit) *)
  effective_regs : int;  (** min(requirement, maxrregcount) *)
  spilled_doubles : int;  (** doubles pushed to local memory *)
  shared_per_block : int;  (** bytes *)
  ilp : float;
  occupancy : Artemis_gpu.Occupancy.result;
}

(* In-plane unroll product: register-cached values replicate per unrolled
   output along tiled dimensions. *)
let inplane_unroll (p : Plan.t) =
  let r = Plan.rank p in
  let stream = Plan.stream_dim p in
  List.fold_left
    (fun acc d -> if stream = Some d then acc else acc * p.unroll.(d))
    1 (List.init r Fun.id)

(** Estimated spill-free register requirement of one thread (in 32-bit
    registers; one double = 2). *)
let regs_estimate (p : Plan.t) bufs =
  let k = p.kernel in
  let f = Kernel_facts.of_kernel k in
  let uin = inplane_unroll p in
  let base = 24 in
  let temps = 2 * f.live_temps in
  let reg_planes =
    List.fold_left
      (fun acc (b : Launch.buffer) ->
        match b.staging with
        | Launch.Stage_stream { reg_planes; _ } -> acc + List.length reg_planes
        | Launch.Stage_tile _ | Launch.Stage_global | Launch.Stage_const
        | Launch.Stage_fold_member _ -> acc)
      0 bufs
  in
  let prefetch_regs = if p.prefetch then Launch.prefetchable_arrays bufs else 0 in
  let retime_accs =
    if not p.retime then 0
    else
      match Plan.stream_dim p with
      | None -> 0
      | Some s ->
        (* One accumulator per output statement per live stream offset. *)
        let outs = f.final_outputs in
        let window =
          List.fold_left
            (fun acc (b : Launch.buffer) ->
              match List.assoc_opt b.array f.offset_ranges with
              | Some r ->
                let lo, hi = r.(s) in
                max acc (hi - lo + 1)
              | None -> acc)
            1 bufs
        in
        List.length outs * window
  in
  let outputs = List.length f.final_outputs in
  let pointers = List.length k.arrays in
  base + pointers
  + (2 * temps)
  + (2 * uin * (reg_planes + prefetch_regs + retime_accs + outputs))
  + (uin * f.flop_pressure)
  + (2 * (Plan.unroll_product p - 1))

(** ILP visible to the scheduler: unrolling multiplies independent work;
    blocked distribution and prefetching expose a little more; heavy
    register pressure erodes it (the compiler serializes to fit); the
    input perspective idles its halo warps during compute (Section
    III-B3), reducing the useful issue rate. *)
let ilp_estimate (p : Plan.t) ~regs_needed =
  let base = 1.6 in
  let unroll_gain = sqrt (float_of_int (Plan.unroll_product p)) in
  let dist_gain = match p.distribution with Plan.Blocked -> 1.15 | Plan.Cyclic -> 1.0 in
  let pf_gain = if p.prefetch then 1.2 else 1.0 in
  let pressure_loss =
    if regs_needed <= p.max_regs then 1.0
    else Float.max 0.35 (float_of_int p.max_regs /. float_of_int regs_needed)
  in
  let persp_loss =
    match p.perspective with
    | Plan.Input_persp ->
      (* active compute threads / launched threads: tile vs halo tile *)
      let rank = Plan.rank p in
      let ext = (Kernel_facts.of_kernel p.kernel).input_extent in
      let frac = ref 1.0 in
      let stream = Plan.stream_dim p in
      for d = 0 to rank - 1 do
        if stream <> Some d then begin
          let lo, hi = ext.(d) in
          let t = float_of_int (p.block.(d) * p.unroll.(d)) in
          frac := !frac *. (t /. (t +. float_of_int (hi - lo)))
        end
      done;
      Float.max 0.4 !frac
    | Plan.Output_persp | Plan.Mixed_persp -> 1.0
  in
  Float.min 8.0 (base *. unroll_gain *. dist_gain *. pf_gain *. pressure_loss *. persp_loss)

(* Extra buffer pressure of degree-N temporal blocking: the streaming
   pipeline keeps [degree] plane windows in flight (one per inner time
   step, double-buffered between the two ping-pong planes).  Under
   [Shared_double] the windows live in shared memory — grown per side by
   (degree-1) x extent when halos are recomputed redundantly; under
   [Register_cycle] each thread cycles its windows through registers. *)
let temporal_pressure (p : Plan.t) (g : Launch.geometry) =
  let tb = p.temporal in
  if tb.degree <= 1 then (0, 0)
  else begin
    let s = match Plan.stream_dim p with Some s -> s | None -> 0 in
    let lo, hi = g.input_extent.(s) in
    let window = hi - lo + 1 in
    let grow d =
      match tb.halo with
      | Plan.Halo_recompute ->
        let l, h = g.input_extent.(d) in
        (tb.degree - 1) * (h - l)
      | Plan.Halo_exchange -> 0
    in
    let plane =
      List.fold_left
        (fun acc d ->
          if d = s then acc
          else
            let l, h = g.input_extent.(d) in
            acc * ((p.block.(d) * p.unroll.(d)) + (h - l) + grow d))
        1
        (List.init g.rank Fun.id)
    in
    match tb.tbuf with
    | Plan.Shared_double -> (tb.degree * window * plane * 8, 0)
    | Plan.Register_cycle -> (0, tb.degree * window * 2 * inplane_unroll p)
  end

(** Full static resource picture of a plan. *)
let resources (p : Plan.t) =
  let g = Launch.geometry p in
  let bufs = Launch.buffers p in
  let tb_shared, tb_regs = temporal_pressure p g in
  let shared = Launch.shared_bytes_per_block p g bufs + tb_shared in
  let needed = regs_estimate p bufs + tb_regs in
  let effective = min needed p.max_regs in
  let spilled = max 0 ((needed - p.max_regs + 1) / 2) in
  let occ =
    Artemis_gpu.Occupancy.calculate p.device
      {
        threads_per_block = Plan.threads_per_block p;
        regs_per_thread = effective;
        shared_per_block = shared;
      }
  in
  {
    regs_per_thread = needed;
    effective_regs = effective;
    spilled_doubles = spilled;
    shared_per_block = shared;
    ilp = ilp_estimate p ~regs_needed:needed;
    occupancy = occ;
  }
