(** Hardware-counter record — the simulator's stand-in for the nvprof
    metrics ARTEMIS profiles (paper, Section IV).  All quantities are
    totals over one kernel launch. *)

type t = {
  useful_flops : float;  (** FLOPs contributing to final outputs *)
  total_flops : float;  (** including redundant recomputation *)
  dram_bytes : float;  (** traffic missing L2 *)
  tex_bytes : float;  (** global-space traffic through texture/L2 *)
  shm_bytes : float;
  gld_transactions : float;  (** 32-byte global load sectors *)
  gst_transactions : float;
  shm_ld : float;  (** shared loads, element granularity *)
  shm_st : float;
  spill_bytes : float;  (** local-memory traffic from register spills *)
  syncs : float;  (** barrier executions, summed over blocks *)
  instructions : float;
}

val zero : t
val add : t -> t -> t
val scale : float -> t -> t

(** Operational intensity at each memory level, as Section IV defines
    it: computed FLOPs (total — nvprof counts executed instructions)
    relative to bytes accessed from the level; infinite when untouched. *)
val oi_dram : t -> float

val oi_tex : t -> float
val oi_shm : t -> float

(** total / useful FLOPs — the overlapped-tiling recomputation factor. *)
val redundancy : t -> float

(** Relative comparison of every deterministic field (used by the
    analytic-vs-executed cross-validation tests). *)
val approx_equal : ?rel:float -> t -> t -> bool

