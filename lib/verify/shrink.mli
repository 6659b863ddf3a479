(** Greedy failing-case minimizer: drop statements, shrink domain
    extents, and lower the fusion degree while the failure predicate
    keeps holding, until a fixpoint (or a step cap) is reached. *)

type result = {
  prog : Artemis_dsl.Ast.program;
  trial : Sampler.trial;
  steps : int;  (** accepted reductions *)
}

(** [minimize ~fails prog trial] — [fails] re-runs the oracle (or any
    predicate) on a candidate; candidates are offered to it only when
    [Check.check_all] accepts them (so they instantiate). *)
val minimize :
  fails:(Artemis_dsl.Ast.program -> Sampler.trial -> bool) ->
  Artemis_dsl.Ast.program -> Sampler.trial -> result
