(** The Section IV-A guideline engine: bottleneck profiles become
    concrete optimization decisions (pruning the autotuner) and textual
    hints for the user. *)

type decisions = {
  enable_shared : bool;  (** stage arrays in shared memory *)
  enable_unroll : bool;
  enable_register_opts : bool;  (** retiming / folding / register caching *)
  explore_fusion : bool;  (** iterative stencils: deeper time tile *)
  explore_fission : bool;  (** register pressure: emit fission candidates *)
  prefer_global : bool;  (** tune the global-memory version instead *)
}

(** Apply the guidelines to a measured and classified kernel;
    [iterative] marks time-iterated stencils. *)
val decide :
  iterative:bool -> Artemis_exec.Analytic.measurement -> Classify.profile ->
  decisions

type hint = {
  severity : [ `Info | `Advice ];
  text : string;
}

(** Human-readable hints mirroring the Section IV-A bullets. *)
val hints :
  iterative:bool -> Artemis_exec.Analytic.measurement -> Classify.profile ->
  hint list
