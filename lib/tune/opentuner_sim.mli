(** Generic-search baseline standing in for OpenTuner (paper, Sections I
    and V): explores the unpruned cross product of every knob with no
    bottleneck guidance.  Used to reproduce the tuning-cost comparison —
    hierarchical tuning reaches comparable quality after measuring a
    small fraction of this space. *)

type record = {
  best : Artemis_exec.Analytic.measurement option;
  attempted : int;
      (** configurations tried — what a wall-clock [budget] caps; invalid
          configurations still consume attempts, as they do for OpenTuner *)
  measured : int;  (** valid configurations actually measured *)
  space_size : int;  (** full cross-product size before validity filtering *)
}

(** Exhaustive search, or the first [budget] configurations (OpenTuner's
    wall-clock cap). *)
val tune : ?budget:int -> Artemis_ir.Plan.t -> record
