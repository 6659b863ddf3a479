(** CUDA occupancy calculation.

    Computes how many thread blocks of a given shape and resource usage
    are co-resident on one streaming multiprocessor, mirroring the CUDA
    occupancy calculator's rounding rules (whole warps, register and
    shared-memory allocation granularity).  Drives resource rationing
    (paper Section II-B2), the load/compute perspective choice (Section
    III-B3), and the latency term of the timing model. *)

(** Per-block resource usage. *)
type usage = {
  threads_per_block : int;
  regs_per_thread : int;  (** 32-bit registers *)
  shared_per_block : int;  (** bytes *)
}

type result = {
  blocks_per_sm : int;
  active_threads : int;  (** resident threads per SM *)
  occupancy : float;  (** active threads / SM thread capacity, in [0, 1] *)
  limiter : limiter;  (** the resource that capped [blocks_per_sm] *)
}

and limiter =
  | By_blocks  (** the SM's block-slot limit *)
  | By_threads
  | By_registers
  | By_shared

val limiter_to_string : limiter -> string

(** [calculate device usage] — occupancy of one block configuration.
    Returns zero blocks (occupancy 0) for unlaunchable configurations:
    oversized blocks, over-budget registers, shared memory beyond the
    per-block limit. *)
val calculate : Device.t -> usage -> result

(** [max_regs_for_occupancy device ~threads_per_block ~shared_per_block
    ~target] — the largest maxrregcount step in {32, 64, 128, 255} that
    still reaches [target] occupancy, or [None] if even 32 registers
    cannot (the tuner's register-stepping rule, Section V). *)
val max_regs_for_occupancy :
  Device.t -> threads_per_block:int -> shared_per_block:int -> target:float ->
  int option
