(** Lowering: DSL kernel + options -> kernel plan.

    Where ARTEMIS's decisions become a concrete code version: tiling
    scheme, thread-block shape and unroll factors, resource assignment
    (with user overrides and occupancy rationing), statement
    decomposition + retiming when homogenizable, folding, perspective and
    prefetch flags. *)

(** Lower one kernel under the given options.  The result is not yet
    validated: tuners filter with [Validate.violations], direct users
    call [Validate.check]. *)
val lower :
  Artemis_gpu.Device.t -> Artemis_dsl.Instantiate.kernel -> Options.t ->
  Artemis_ir.Plan.t

(** Lower with the kernel's own [#pragma] merged into the option base —
    the un-tuned "baseline version" of Section VII, step 1. *)
val lower_with_pragma :
  Artemis_gpu.Device.t -> Artemis_dsl.Instantiate.kernel -> Options.t ->
  Artemis_ir.Plan.t
