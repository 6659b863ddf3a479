(* Roofline-based bottleneck classification (paper, Section IV).

   For each memory level M the profiler compares the kernel's operational
   intensity OI_M against the machine balance alpha/beta_M: well below the
   knee means bandwidth-bound at M; at or above means compute-bound at M.
   A kernel that is bandwidth-bound nowhere and compute-bound nowhere is
   latency-bound.  Kernels near a knee are ambiguous and resolved by code
   differencing (Differencing module). *)

module Device = Artemis_gpu.Device
module Counters = Artemis_gpu.Counters
module Trace = Artemis_obs.Trace
module Metrics = Artemis_obs.Metrics

type level =
  | Dram
  | Tex
  | Shm

let level_to_string = function
  | Dram -> "DRAM"
  | Tex -> "texture/L2"
  | Shm -> "shared memory"

type verdict =
  | Bandwidth_bound of level list  (** levels well below the knee *)
  | Compute_bound
  | Latency_bound
  | Ambiguous of level  (** near the knee at this level; needs differencing *)

let verdict_to_string = function
  | Bandwidth_bound levels ->
    "bandwidth-bound at "
    ^ String.concat ", " (List.map level_to_string levels)
  | Compute_bound -> "compute-bound"
  | Latency_bound -> "latency-bound"
  | Ambiguous l -> "ambiguous near the " ^ level_to_string l ^ " roofline"

(* Constant-cardinality tag for metric labels (no level lists). *)
let verdict_tag = function
  | Bandwidth_bound _ -> "bandwidth-bound"
  | Compute_bound -> "compute-bound"
  | Latency_bound -> "latency-bound"
  | Ambiguous _ -> "ambiguous"

type profile = {
  oi_dram : float;
  oi_tex : float;
  oi_shm : float;
  knee_dram : float;
  knee_tex : float;
  knee_shm : float;
  verdict : verdict;
  achieved_fraction : float;  (** total FLOP rate / peak, from the timing model *)
}

(* "Well below the knee": the margin the paper's methodology needs before
   calling a kernel bandwidth-bound without differencing. *)
let margin = 0.8

let classify (device : Device.t) (c : Counters.t) ~(time_s : float) =
  let oi_dram = Counters.oi_dram c in
  let oi_tex = Counters.oi_tex c in
  let oi_shm = Counters.oi_shm c in
  let knee_dram = Device.knee_dram device in
  let knee_tex = Device.knee_tex device in
  let knee_shm = Device.knee_shm device in
  let achieved =
    if time_s > 0.0 then c.total_flops /. time_s /. device.peak_dp_flops else 0.0
  in
  let levels =
    [ (Dram, oi_dram, knee_dram); (Tex, oi_tex, knee_tex); (Shm, oi_shm, knee_shm) ]
  in
  let bound_levels =
    List.filter_map
      (fun (l, oi, knee) -> if oi < margin *. knee then Some l else None)
      levels
  in
  let near =
    List.find_opt
      (fun (_, oi, knee) -> oi >= margin *. knee && oi < knee /. margin)
      levels
  in
  let verdict =
    if achieved >= 0.6 then Compute_bound
    else
      match (bound_levels, near) with
      | _ :: _, _ ->
        (* Bandwidth-bound levels are only real bottlenecks if the level's
           pipe time is close to dominating; report those below the knee
           whose traffic is substantial. *)
        let pipe_time l =
          match l with
          | Dram -> c.dram_bytes /. device.dram_bw
          | Tex -> c.tex_bytes /. device.tex_bw
          | Shm -> c.shm_bytes /. device.shm_bw
        in
        let significant =
          List.filter (fun l -> time_s > 0.0 && pipe_time l >= 0.5 *. time_s) bound_levels
          (* most dominant pipe first: differencing targets the head *)
          |> List.sort (fun a b -> compare (pipe_time b) (pipe_time a))
        in
        if significant <> [] then Bandwidth_bound significant
        else if achieved < 0.3 then Latency_bound
        else Bandwidth_bound bound_levels
      | [], Some (l, _, _) -> Ambiguous l
      | [], None -> if achieved >= 0.5 then Compute_bound else Latency_bound
  in
  Metrics.incr
    (Metrics.counter "profile.classifications" ~labels:[ ("verdict", verdict_tag verdict) ]);
  (* The roofline evidence behind the verdict: knee distance = OI as a
     fraction of the machine-balance knee at each level ([< margin] means
     bandwidth-bound there). *)
  Trace.instant "profile.verdict"
    ~attrs:
      [ ("verdict", Str (verdict_to_string verdict));
        ("oi_dram", Float oi_dram); ("oi_tex", Float oi_tex); ("oi_shm", Float oi_shm);
        ("knee_dist_dram", Float (if knee_dram > 0.0 then oi_dram /. knee_dram else 0.0));
        ("knee_dist_tex", Float (if knee_tex > 0.0 then oi_tex /. knee_tex else 0.0));
        ("knee_dist_shm", Float (if knee_shm > 0.0 then oi_shm /. knee_shm else 0.0));
        ("achieved_fraction", Float achieved) ];
  { oi_dram; oi_tex; oi_shm; knee_dram; knee_tex; knee_shm; verdict;
    achieved_fraction = achieved }

