(** PPCG-like baseline (paper, Section VIII-F): a general polyhedral
    compiler's strategy — 3-D spatial tiling with generic heuristics,
    global-memory operands, maximal fusion, a conservative register cap,
    and deep boundary conditionals (modelled as a performance derating).
    The paper attributes PPCG's losses on complex stencils to exactly
    these. *)

type result = {
  measurement : Artemis_exec.Analytic.measurement;
  derated_tflops : float;  (** after the conditional-overhead factor *)
  explored : int;
}

(** Tune block shapes only; [None] when nothing launches. *)
val tune :
  Artemis_gpu.Device.t -> Artemis_dsl.Instantiate.kernel -> result option
