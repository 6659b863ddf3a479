(** Roofline-based bottleneck classification (paper, Section IV).

    For each memory level M the kernel's operational intensity OI_M is
    compared against the machine balance alpha/beta_M: well below the
    knee is bandwidth-bound at M; a kernel bandwidth-bound nowhere and
    not near peak is latency-bound; near-knee kernels are [Ambiguous]
    and resolved by code differencing. *)

type level =
  | Dram
  | Tex  (** texture / L2 *)
  | Shm

type verdict =
  | Bandwidth_bound of level list  (** most dominant pipe first *)
  | Compute_bound
  | Latency_bound
  | Ambiguous of level  (** near the knee; needs differencing *)

val verdict_to_string : verdict -> string

(** Short constant tag per verdict kind, usable as a metric label. *)
val verdict_tag : verdict -> string

type profile = {
  oi_dram : float;
  oi_tex : float;
  oi_shm : float;
  knee_dram : float;
  knee_tex : float;
  knee_shm : float;
  verdict : verdict;
  achieved_fraction : float;  (** FLOP rate / device peak *)
}

val classify : Artemis_gpu.Device.t -> Artemis_gpu.Counters.t -> time_s:float -> profile

