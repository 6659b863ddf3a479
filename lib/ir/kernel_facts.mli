(** Every fact that depends on a kernel alone and that more than one
    module reads, or that each tuner candidate would otherwise
    recompute: the launch's array roles, extents and interior, the
    register model's inputs, the analyses these are built from and the
    per-statement self-dependence verdicts.

    A tuning search prices hundreds of candidates over one kernel value,
    so [of_kernel] is cached per domain on the kernel's physical
    identity ([Artemis_dsl.Kernel_memo]).  The record is plain data, so
    [=] and [Marshal] work on it, and the facts of a copy of a kernel
    equal the facts of the kernel. *)

module An = Artemis_dsl.Analysis

(** One array the kernel reads, with everything its staging depends on
    that a plan does not choose. *)
type read_array = {
  name : string;
  reads : int;  (** textual reads per point *)
  inter : bool;  (** written and re-read within the kernel *)
  ext : An.extent;  (** required read extent *)
  planes : (int list * int list) array;
      (** per candidate stream dimension: the stream offsets read at an
          in-plane offset (shared planes), then the centre-only ones
          (register planes), each ascending *)
}

type t = {
  read_accesses : An.access list;  (** {!An.accesses_of_stmt} over the body *)
  required_extents : (string * An.extent) list;
      (** {!An.required_extents}, sorted by name *)
  distinct_offsets : (string * int array list) list;  (** {!An.offsets_of_reads} *)
  reads_per_point : (string * int) list;  (** {!An.tally_reads} *)
  self_deps : Artemis_static.Static.dep list;
      (** {!Artemis_static.Static.self_dependences} of each statement, in
          body order *)
  pure_inputs : string list;  (** arrays read but never written *)
  intermediates : string list;  (** arrays written and re-read (fusion scratch) *)
  final_outputs : string list;  (** arrays written and never re-read *)
  input_extent : An.extent;  (** union of the pure inputs' read extents *)
  recompute_halo : int;
      (** widest required extent over the intermediates: the
          recomputation halo overlapped tiling pays for the fusion *)
  interior_lo : int array;  (** first updated index per dimension *)
  interior_hi : int array;  (** last updated index per dimension (inclusive) *)
  read_arrays : read_array list;  (** the kernel's arrays in [reads_per_point] order *)
  live_temps : int;  (** most temporaries live at once across the body *)
  flop_pressure : int;
      (** the body's FLOPs / 5, the register model's arithmetic pressure *)
  offset_ranges : (string * (int * int) array) list;
      (** per read array, its shift range per dimension (widened to 0),
          sorted by name *)
  guard_exts : An.extent list;
      (** per statement, in body order: its reads' shift range per
          dimension, which its guard keeps inside the domain *)
}

(** The facts of a kernel, cached per domain on the kernel value. *)
val of_kernel : Artemis_dsl.Instantiate.kernel -> t
