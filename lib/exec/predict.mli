(** Measurement-free pre-ranking of candidate plans: one representative
    block's counters scaled to the grid, priced by the same
    [Timing.evaluate] that [Analytic] uses on the exact class sum.  The
    tuner ranks the candidates that passed [Validate.validate] with
    [rank] before paying a full [Analytic.measure]; see docs/MODEL.md. *)

(** [(score, predicted_seconds)] for pre-ranking: the score is seconds
    per useful FLOP (lower is better), so plans covering different step
    counts per launch compare on useful throughput.  The tuner ranks
    only plans that passed [Validate.validate]; the score of an
    unlaunchable plan means nothing.  Pure and deterministic: safe to
    evaluate in worker domains. *)
val rank : Artemis_ir.Plan.t -> float * float
