(* Kernel plan: the configuration space of the code generator.  One plan =
   one concrete GPU code version of a kernel — the object the autotuner
   enumerates, the executor runs, the emitter prints as CUDA, and the
   timing model prices.

   Axis conventions follow the DSL: arrays indexed slowest dimension
   first, so [block], [unroll] and halo vectors are indexed by iterator
   dimension with index 0 the slowest (k/z) and the last index the
   fastest (i/x). *)

module A = Artemis_dsl.Ast
module I = Artemis_dsl.Instantiate
module Device = Artemis_gpu.Device

(** Tiling scheme (paper, Sections III-A1, III-A2, III-B1). *)
type scheme =
  | Tiled  (** overlapped tiling of all dimensions, no streaming *)
  | Serial_stream of int
      (** overlap-tile all but dimension [d]; each block walks the whole
          extent of [d] serially *)
  | Concurrent_stream of int * int
      (** [Concurrent_stream (d, chunk)]: all dimensions overlap-tiled;
          blocks walk their [chunk]-long slice of dimension [d] serially,
          restoring concurrency along [d] (Section III-B1) *)

(** Thread-block work distribution (Section III-B3). *)
type perspective =
  | Output_persp  (** one thread per output point; boundary threads reload *)
  | Input_persp  (** one thread per input point; halo threads idle in compute *)
  | Mixed_persp  (** by x (bx + 2k): full warps along x, none idle along y *)

(** Unrolled-work distribution within a warp (Section III-A3). *)
type distribution =
  | Cyclic
  | Blocked

type placement_map = (string * A.placement) list

(** How a temporally-blocked kernel covers the halo between inner time
    steps (AN5D): recompute the trapezoid redundantly from a grown input
    halo, or exchange the per-step halo rings through global memory. *)
type halo_policy =
  | Halo_recompute
  | Halo_exchange

(** Where the degree-N stream keeps its in-flight planes: the shared
    double-buffer pipeline, or a per-thread register cycle. *)
type tbuffer =
  | Shared_double
  | Register_cycle

(** Degree-N temporal blocking: [degree] inner time steps per sweep over
    the streamed outer dimension, alternating between the two physical
    buffers of [pair] (out, inp) — associative double-buffering.  Degree
    1 means no temporal blocking. *)
type temporal = {
  degree : int;
  halo : halo_policy;
  tbuf : tbuffer;
  pair : (string * string) option;  (** ping-pong (out, inp) arrays *)
}

let no_temporal = { degree = 1; halo = Halo_recompute; tbuf = Shared_double; pair = None }

type t = {
  kernel : I.kernel;
  device : Device.t;
  scheme : scheme;
  block : int array;  (** threads per dimension, slowest first *)
  unroll : int array;  (** outputs per thread per dimension *)
  distribution : distribution;
  placement : placement_map;  (** input arrays -> storage class *)
  prefetch : bool;
  perspective : perspective;
  retime : bool;
  fold : (A.binop * string list) list;  (** enabled folding groups *)
  max_regs : int;  (** maxrregcount: 32 | 64 | 128 | 255 *)
  time_tile : int;  (** fusion degree recorded for reporting; the fused
                        body itself already lives in [kernel] *)
  temporal : temporal;  (** degree-N temporal blocking of the time loop *)
}

and placement = A.placement

let rank (p : t) = Array.length p.kernel.domain

let scheme_to_string = function
  | Tiled -> "tiled"
  | Serial_stream d -> Printf.sprintf "serial-stream(dim %d)" d
  | Concurrent_stream (d, c) -> Printf.sprintf "concurrent-stream(dim %d, chunk %d)" d c

let perspective_to_string = function
  | Output_persp -> "output"
  | Input_persp -> "input"
  | Mixed_persp -> "mixed"

(** Dimension streamed by the plan, if any. *)
let stream_dim (p : t) =
  match p.scheme with
  | Tiled -> None
  | Serial_stream d | Concurrent_stream (d, _) -> Some d

(** Storage class of an array under this plan (outputs are written to
    global memory; unplaced inputs default to global). *)
let placement_of (p : t) name =
  match List.assoc_opt name p.placement with
  | Some pl -> pl
  | None -> A.Gmem

let uses_shared (p : t) =
  List.exists (fun (_, pl) -> pl = A.Shmem) p.placement

let threads_per_block (p : t) = Array.fold_left ( * ) 1 p.block

let unroll_product (p : t) = Array.fold_left ( * ) 1 p.unroll

let halo_policy_to_string = function
  | Halo_recompute -> "recompute"
  | Halo_exchange -> "exchange"

let tbuffer_to_string = function
  | Shared_double -> "shared-double"
  | Register_cycle -> "register-cycle"

(** The plan temporally blocks its time loop ([degree] > 1). *)
let temporally_blocked (p : t) = p.temporal.degree > 1

(** A compact, deterministic label for logs and tuning records. *)
let label (p : t) =
  let arr_to_s a =
    Array.to_list a |> List.map string_of_int |> String.concat "x"
  in
  Printf.sprintf "%s[%s b=%s u=%s %s%s%s regs=%d tt=%d%s]" p.kernel.kname
    (scheme_to_string p.scheme) (arr_to_s p.block) (arr_to_s p.unroll)
    (perspective_to_string p.perspective)
    (if p.prefetch then " pf" else "")
    (if p.retime then " rt" else "")
    p.max_regs p.time_tile
    (if p.temporal.degree > 1 then
       Printf.sprintf " tb=%d:%s:%s" p.temporal.degree
         (halo_policy_to_string p.temporal.halo)
         (tbuffer_to_string p.temporal.tbuf)
     else "")

(** Default plan: 3-D tiled, one thread per point, 16x4x4 block (the
    paper's non-streaming baseline shape), everything in global memory. *)
let default (device : Device.t) (kernel : I.kernel) =
  let r = Array.length kernel.domain in
  let block =
    match r with
    | 1 -> [| 256 |]
    | 2 -> [| 4; 64 |]
    | _ ->
      Array.init r (fun d ->
          if d = r - 1 then 16 else if d >= r - 3 then 4 else 1)
  in
  {
    kernel;
    device;
    scheme = Tiled;
    block;
    unroll = Array.make r 1;
    distribution = Blocked;
    placement = [];
    prefetch = false;
    perspective = Output_persp;
    retime = false;
    fold = [];
    max_regs = 255;
    time_tile = 1;
    temporal = no_temporal;
  }
