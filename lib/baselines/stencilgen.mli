(** STENCILGEN-like baseline (paper, Sections VIII-F and IX): the
    strongest prior stencil generator the paper compares against.

    Strategy, per the paper: serial streaming with shared-memory plane
    windows, fusion with associative reordering (retiming), every
    optimization applied simultaneously with no bottleneck analysis, and
    no loop unrolling, prefetching, concurrent streaming, or load/compute
    adjustment.  It rejects stencil functions mixing domain
    dimensionalities (which is why it "could not generate code for the
    kernels from SW4lite"). *)

type outcome =
  | Tuned of Artemis_exec.Analytic.measurement * int
      (** best measurement, configurations explored *)
  | Unsupported of string

(** Tune the strategy over block shapes. *)
val tune : Artemis_gpu.Device.t -> Artemis_dsl.Instantiate.kernel -> outcome
