(** Per-kernel memo keyed on the physical identity of the kernel value.

    Tuner candidates share their base plan's kernel value, and phase 2's
    retimed variants share one retimed kernel value, so facts that
    depend only on the kernel are computed once per search.  Each domain
    keeps its own most-recently-used list of two kernels: safe to call
    from pool workers without a lock, and bounded whatever a run walks
    through.  Its two users are [Artemis_ir.Kernel_facts.of_kernel] and
    the traffic model's per-kernel table. *)

(** [memo f] is [f] cached per kernel value ([==]). *)
val memo : (Instantiate.kernel -> 'a) -> Instantiate.kernel -> 'a
