(* Hardware-counter record: the simulator's stand-in for the nvprof
   metrics ARTEMIS profiles (paper, Section IV).  All quantities are
   totals over one kernel launch. *)

type t = {
  useful_flops : float;  (** FLOPs contributing to final outputs *)
  total_flops : float;  (** including redundant recomputation from overlap *)
  dram_bytes : float;  (** traffic that misses L2 and reaches DRAM *)
  tex_bytes : float;  (** global-space traffic through texture/L2 *)
  shm_bytes : float;  (** shared-memory load/store traffic *)
  gld_transactions : float;  (** 32-byte global load sectors *)
  gst_transactions : float;  (** 32-byte global store sectors *)
  shm_ld : float;  (** shared loads (element granularity) *)
  shm_st : float;  (** shared stores *)
  spill_bytes : float;  (** local-memory traffic from register spills *)
  syncs : float;  (** barrier executions, summed over blocks *)
  instructions : float;  (** dynamic instruction estimate *)
}

let zero =
  {
    useful_flops = 0.;
    total_flops = 0.;
    dram_bytes = 0.;
    tex_bytes = 0.;
    shm_bytes = 0.;
    gld_transactions = 0.;
    gst_transactions = 0.;
    shm_ld = 0.;
    shm_st = 0.;
    spill_bytes = 0.;
    syncs = 0.;
    instructions = 0.;
  }

let add a b =
  {
    useful_flops = a.useful_flops +. b.useful_flops;
    total_flops = a.total_flops +. b.total_flops;
    dram_bytes = a.dram_bytes +. b.dram_bytes;
    tex_bytes = a.tex_bytes +. b.tex_bytes;
    shm_bytes = a.shm_bytes +. b.shm_bytes;
    gld_transactions = a.gld_transactions +. b.gld_transactions;
    gst_transactions = a.gst_transactions +. b.gst_transactions;
    shm_ld = a.shm_ld +. b.shm_ld;
    shm_st = a.shm_st +. b.shm_st;
    spill_bytes = a.spill_bytes +. b.spill_bytes;
    syncs = a.syncs +. b.syncs;
    instructions = a.instructions +. b.instructions;
  }

let scale f a =
  {
    useful_flops = f *. a.useful_flops;
    total_flops = f *. a.total_flops;
    dram_bytes = f *. a.dram_bytes;
    tex_bytes = f *. a.tex_bytes;
    shm_bytes = f *. a.shm_bytes;
    gld_transactions = f *. a.gld_transactions;
    gst_transactions = f *. a.gst_transactions;
    shm_ld = f *. a.shm_ld;
    shm_st = f *. a.shm_st;
    spill_bytes = f *. a.spill_bytes;
    syncs = f *. a.syncs;
    instructions = f *. a.instructions;
  }

(** Operational intensity at each memory level, as Section IV defines it:
    FLOPs relative to the bytes accessed from that level.  The paper's OI
    uses the kernel's computed FLOPs (total, including redundancy —
    nvprof's flop_count_dp counts executed instructions). *)
let oi_dram c = if c.dram_bytes > 0. then c.total_flops /. c.dram_bytes else infinity
let oi_tex c = if c.tex_bytes > 0. then c.total_flops /. c.tex_bytes else infinity
let oi_shm c = if c.shm_bytes > 0. then c.total_flops /. c.shm_bytes else infinity

let redundancy c = if c.useful_flops > 0. then c.total_flops /. c.useful_flops else 1.0

let approx_equal ?(rel = 1e-9) a b =
  let close x y =
    let m = Float.max (Float.abs x) (Float.abs y) in
    Float.abs (x -. y) <= (rel *. Float.max m 1.0)
  in
  close a.useful_flops b.useful_flops
  && close a.total_flops b.total_flops
  && close a.dram_bytes b.dram_bytes
  && close a.tex_bytes b.tex_bytes
  && close a.shm_bytes b.shm_bytes
  && close a.gld_transactions b.gld_transactions
  && close a.gst_transactions b.gst_transactions
  && close a.shm_ld b.shm_ld
  && close a.shm_st b.shm_st
  && close a.spill_bytes b.spill_bytes

