(* GPU device descriptions.  The primary target is the NVIDIA P100 the
   paper evaluates on; peak throughputs are taken from the paper's
   Section VIII-A (alpha = 4.7 DP TFLOPS, alpha/beta_dram = 6.42,
   alpha/beta_tex = 2.35, alpha/beta_shm = 0.49, citing Jia et al.). *)

type t = {
  name : string;
  sms : int;  (** streaming multiprocessors *)
  warp_size : int;
  max_threads_per_block : int;
  max_threads_per_sm : int;
  max_blocks_per_sm : int;
  regs_per_sm : int;  (** 32-bit registers per SM *)
  max_regs_per_thread : int;
  reg_alloc_unit : int;  (** register allocation granularity (per thread) *)
  shared_per_sm : int;  (** bytes *)
  shared_per_block : int;  (** bytes, default configuration *)
  shared_alloc_unit : int;  (** shared allocation granularity, bytes *)
  l2_bytes : int;
  halo_miss : float;
      (** fraction of a block's halo footprint that misses L2 *)
  l2_hit_floor : float;
      (** residual L2 miss rate when a reuse working set fits *)
  clock_ghz : float;
  peak_dp_flops : float;  (** alpha, FLOP/s *)
  dram_bw : float;  (** beta_dram, bytes/s *)
  tex_bw : float;  (** beta_tex: texture/L2 level aggregate bandwidth *)
  shm_bw : float;  (** beta_shm: aggregate shared-memory bandwidth *)
  dp_latency_cycles : float;  (** arithmetic pipeline depth to hide *)
  schedulers_per_sm : int;
}

let p100 =
  let alpha = 4.7e12 in
  {
    name = "NVIDIA P100 (Pascal)";
    sms = 56;
    warp_size = 32;
    max_threads_per_block = 1024;
    max_threads_per_sm = 2048;
    max_blocks_per_sm = 32;
    regs_per_sm = 65536;
    max_regs_per_thread = 255;
    reg_alloc_unit = 2;
    shared_per_sm = 64 * 1024;
    shared_per_block = 48 * 1024;
    shared_alloc_unit = 256;
    l2_bytes = 4 * 1024 * 1024;
    (* Working-set L2 model constants (Traffic): neighbouring blocks are
       rarely co-resident among the thousands in flight, so most of a
       block's halo refetch misses L2, and even a working set that fits
       keeps a small residual miss rate.  Calibrated on the P100 and
       kept on every entry; bench/main.exe ablation sweeps them. *)
    halo_miss = 0.7;
    l2_hit_floor = 0.05;
    clock_ghz = 1.328;
    peak_dp_flops = alpha;
    dram_bw = alpha /. 6.42;
    tex_bw = alpha /. 2.35;
    shm_bw = alpha /. 0.49;
    (* Effective dependent-issue latency: the 8-cycle GP100 DFMA pipe
       (Jia et al., microbenchmarked) plus the amortized shared/L1
       operand-fetch latency a stencil dependence chain waits on (~24
       cycles per staged load over ~3 arithmetic ops).  The resulting
       latency knee sits between 12.5 % and 25 % occupancy at the
       paper's spatial-kernel ILP band — pinned by a unit test in
       test/test_predict.ml. *)
    dp_latency_cycles = 16.0;
    schedulers_per_sm = 2;
  }

(* A V100 entry exercises device portability in tests (different shared
   memory capacity and SM count shift occupancy decisions). *)
let v100 =
  let alpha = 7.0e12 in
  {
    name = "NVIDIA V100 (Volta)";
    sms = 80;
    warp_size = 32;
    max_threads_per_block = 1024;
    max_threads_per_sm = 2048;
    max_blocks_per_sm = 32;
    regs_per_sm = 65536;
    max_regs_per_thread = 255;
    reg_alloc_unit = 2;
    shared_per_sm = 96 * 1024;
    shared_per_block = 96 * 1024;
    shared_alloc_unit = 256;
    l2_bytes = 6 * 1024 * 1024;
    halo_miss = 0.7;
    l2_hit_floor = 0.05;
    clock_ghz = 1.53;
    peak_dp_flops = alpha;
    dram_bw = 900e9;
    tex_bw = alpha /. 2.2;
    shm_bw = alpha /. 0.45;
    (* Dependent-issue latency is 4 cycles on Volta and later (Jia et
       al.); operand reuse caches hide most of the L1 fetch cost. *)
    dp_latency_cycles = 4.0;
    schedulers_per_sm = 4;
  }

(* A100-class entry (Ampere GA100, SXM4 40 GB): alpha = 9.7 DP TFLOPS,
   1555 GB/s HBM2e (alpha/beta_dram = 6.24), 40 MB L2.  Shared-memory
   bandwidth is 128 B/clk/SM x 108 SMs x 1.41 GHz = 19.5 TB/s
   (alpha/beta_shm = 0.50); L2/texture aggregate ~4.9 TB/s
   (alpha/beta_tex = 2.0). *)
let a100 =
  let alpha = 9.7e12 in
  {
    name = "NVIDIA A100 (Ampere)";
    sms = 108;
    warp_size = 32;
    max_threads_per_block = 1024;
    max_threads_per_sm = 2048;
    max_blocks_per_sm = 32;
    regs_per_sm = 65536;
    max_regs_per_thread = 255;
    reg_alloc_unit = 2;
    shared_per_sm = 164 * 1024;
    shared_per_block = 163 * 1024;
    shared_alloc_unit = 256;
    l2_bytes = 40 * 1024 * 1024;
    halo_miss = 0.7;
    l2_hit_floor = 0.05;
    clock_ghz = 1.41;
    peak_dp_flops = alpha;
    dram_bw = 1555e9;
    tex_bw = alpha /. 2.0;
    shm_bw = alpha /. 0.50;
    dp_latency_cycles = 4.0;
    schedulers_per_sm = 4;
  }

(* H100-class entry (Hopper GH100, SXM5): alpha = 34 DP TFLOPS (vector,
   not tensor), 3.35 TB/s HBM3 (alpha/beta_dram = 10.1), 50 MB L2.
   Shared bandwidth 128 B/clk/SM x 132 SMs x 1.83 GHz = 30.9 TB/s
   (alpha/beta_shm = 1.1); L2 aggregate ~13 TB/s (alpha/beta_tex =
   2.6). *)
let h100 =
  let alpha = 34.0e12 in
  {
    name = "NVIDIA H100 (Hopper)";
    sms = 132;
    warp_size = 32;
    max_threads_per_block = 1024;
    max_threads_per_sm = 2048;
    max_blocks_per_sm = 32;
    regs_per_sm = 65536;
    max_regs_per_thread = 255;
    reg_alloc_unit = 2;
    shared_per_sm = 228 * 1024;
    shared_per_block = 227 * 1024;
    shared_alloc_unit = 256;
    l2_bytes = 50 * 1024 * 1024;
    halo_miss = 0.7;
    l2_hit_floor = 0.05;
    clock_ghz = 1.83;
    peak_dp_flops = alpha;
    dram_bw = 3350e9;
    tex_bw = alpha /. 2.6;
    shm_bw = alpha /. 1.1;
    dp_latency_cycles = 4.0;
    schedulers_per_sm = 4;
  }

(* The machine-model registry: every target the tuner, the sampler, and
   the CLI can name.  Aliases are the [--device]/[ARTEMIS_DEVICE]
   spellings; [find] also accepts the full marketing name. *)
let registry = [ ("p100", p100); ("v100", v100); ("a100", a100); ("h100", h100) ]

let find name =
  let lc = String.lowercase_ascii (String.trim name) in
  List.find_map
    (fun (alias, d) ->
      if lc = alias || lc = String.lowercase_ascii d.name then Some d else None)
    registry

(** Roofline knee [alpha / beta_M] for each memory level (FLOPs/byte). *)
let knee_dram d = d.peak_dp_flops /. d.dram_bw
let knee_tex d = d.peak_dp_flops /. d.tex_bw
let knee_shm d = d.peak_dp_flops /. d.shm_bw

let pp fmt d =
  Format.fprintf fmt "%s: %d SMs, %.1f DP TFLOPS, %.0f GB/s DRAM, %d KB shm/SM"
    d.name d.sms (d.peak_dp_flops /. 1e12) (d.dram_bw /. 1e9) (d.shared_per_sm / 1024)
