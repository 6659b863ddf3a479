(** Launch geometry and staging layout of a plan: tile shapes, halos,
    grid extents, shared/register buffer structure, and synchronization
    counts.  The executor, the analytic counter evaluator, the resource
    estimator, and the CUDA emitter all derive their quantities here, so
    they agree by construction. *)

module An = Artemis_dsl.Analysis

type geometry = {
  rank : int;
  domain : int array;
  tile : int array;  (** output points per block per dimension *)
  grid : int array;  (** blocks per dimension *)
  total_blocks : int;
  interior_lo : int array;  (** first updated index per dimension *)
  interior_hi : int array;  (** last updated index (inclusive) *)
  input_extent : An.extent;  (** union of read extents of pure inputs *)
  steps_per_block : int;  (** plane steps when streaming, else 1 *)
}

(** How the reads of one array are staged inside the kernel. *)
type staging =
  | Stage_global  (** read straight from global memory at each use *)
  | Stage_const
  | Stage_tile of { halo : (int * int) array }
      (** whole halo-extended tile in shared memory (non-streaming) *)
  | Stage_stream of {
      shared_planes : int list;  (** stream-offsets staged as shared planes *)
      reg_planes : int list;  (** stream-offsets in per-thread registers *)
      halo : (int * int) array;  (** in-plane halo *)
    }
  | Stage_fold_member of string
      (** folded into the named leader's buffer (Section III-B4) *)

type buffer = {
  array : string;
  staging : staging;
  is_intermediate : bool;  (** written and re-read within the kernel *)
  extent : An.extent;  (** required read extent *)
  reads_per_point : int;
}

(** The kernel-only inputs of [geometry] and [buffers] (array roles,
    extents, interior, read arrays) come from {!Kernel_facts}. *)

val geometry : Plan.t -> geometry

(** Staging layout of every array the kernel reads: with streaming, a
    plane read only at its in-plane center lives in a register (Listing
    2's [in_reg_m1]); retiming collapses shared planes to the incoming
    plane; folding aliases non-leader members. *)
val buffers : Plan.t -> buffer list

val shared_bytes_per_block : Plan.t -> geometry -> buffer list -> int

(** Barrier executions per block: two per plane step when streaming with
    shared staging, one after a cooperative tile load, zero without
    shared memory. *)
val syncs_per_block : Plan.t -> geometry -> buffer list -> int

(** Streamed arrays whose incoming loads prefetching can stage. *)
val prefetchable_arrays : buffer list -> int

(**/**)

val in_plane_halo : int -> int option -> An.extent -> (int * int) array
