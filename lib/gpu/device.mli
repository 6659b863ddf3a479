(** GPU device descriptions.  The primary target is the NVIDIA P100 the
    paper evaluates on, with peak throughputs taken from Section VIII-A
    (alpha = 4.7 DP TFLOPS; alpha/beta = 6.42 DRAM, 2.35 texture/L2,
    0.49 shared). *)

type t = {
  name : string;
  sms : int;
  warp_size : int;
  max_threads_per_block : int;
  max_threads_per_sm : int;
  max_blocks_per_sm : int;
  regs_per_sm : int;  (** 32-bit registers per SM *)
  max_regs_per_thread : int;
  reg_alloc_unit : int;  (** register allocation granularity per thread *)
  shared_per_sm : int;  (** bytes *)
  shared_per_block : int;  (** bytes, default configuration *)
  shared_alloc_unit : int;  (** bytes *)
  l2_bytes : int;
  halo_miss : float;
      (** fraction of a block's halo footprint that misses L2
          (neighbouring blocks are rarely co-resident among thousands in
          flight) — a constant of the [Traffic] DRAM/L2 model *)
  l2_hit_floor : float;
      (** residual L2 miss rate even when a reuse working set fits —
          the other [Traffic] DRAM/L2 model constant *)
  clock_ghz : float;
  peak_dp_flops : float;  (** alpha, FLOP/s *)
  dram_bw : float;  (** bytes/s *)
  tex_bw : float;  (** texture/L2 aggregate bandwidth *)
  shm_bw : float;  (** shared-memory aggregate bandwidth *)
  dp_latency_cycles : float;  (** effective dependent-issue latency *)
  schedulers_per_sm : int;
}

(** The paper's evaluation device. *)
val p100 : t

(** A V100-class entry for portability tests and experiments. *)
val v100 : t

(** Every machine model the tuner, sampler, and CLI can target, keyed by
    its [--device]/[ARTEMIS_DEVICE] alias. *)
val registry : (string * t) list

(** Look a device up by registry alias or full marketing name
    (case-insensitive). *)
val find : string -> t option

(** Roofline knee alpha/beta_M at each memory level (FLOPs/byte). *)
val knee_dram : t -> float

val knee_tex : t -> float
val knee_shm : t -> float

val pp : Format.formatter -> t -> unit
