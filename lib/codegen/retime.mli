(** Statement decomposition and retiming (paper, Section III-B2).

    Decomposition splits each grid-writing statement's right-hand side
    into its top-level additive terms, emitted as an assignment followed
    by accumulations.  Retiming requires each term to homogenize — all
    its reads share one offset along the streaming dimension — so the
    generated code can fold the term into a register accumulator as the
    corresponding input plane arrives, instead of buffering the whole
    plane window.  Decomposition preserves FLOP counts exactly and
    values up to floating-point reassociation (and up to per-term guards
    at domain faces). *)

(** Decomposed form of the whole body. *)
val decompose_kernel :
  Artemis_dsl.Instantiate.kernel -> Artemis_dsl.Instantiate.kernel

(** The decomposed kernel when retimable along the iterator of
    [dim_index], [None] otherwise (the caller leaves retiming off). *)
val apply :
  Artemis_dsl.Instantiate.kernel -> dim_index:int ->
  Artemis_dsl.Instantiate.kernel option
