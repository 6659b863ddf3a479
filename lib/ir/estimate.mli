(** Static resource estimation for a plan: per-thread register pressure,
    ILP, spills, shared usage, and the resulting occupancy.

    The register model is a calibrated heuristic; what matters for the
    reproduction is the decision structure it induces — complex spatial
    kernels land in the 128-255 register band (12.5-25 % occupancy,
    paper Section VIII-C), rhs4sgcurv's maxfuse kernel exceeds 255 and
    spills (Section VIII-D), and unrolling multiplies pressure so the
    tuner steps maxrregcount upward (Section V). *)

type resources = {
  regs_per_thread : int;  (** estimated spill-free requirement, 32-bit *)
  effective_regs : int;  (** min(requirement, maxrregcount) *)
  spilled_doubles : int;  (** doubles pushed to local memory *)
  shared_per_block : int;  (** bytes *)
  ilp : float;  (** independent instructions between dependences *)
  occupancy : Artemis_gpu.Occupancy.result;
}

(** Full static resource picture of a plan. *)
val resources : Plan.t -> resources
