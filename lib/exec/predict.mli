(** Measurement-free pre-ranking of candidate plans: one representative
    block's counters scaled to the grid, priced by the same
    [Timing.evaluate] that [Analytic] uses on the exact class sum.  The
    tuner ranks candidates with [rank] before paying a full
    [Analytic.try_measure]; see docs/MODEL.md. *)

(** [(score, predicted_seconds)] for pre-ranking: the score is seconds
    per useful FLOP (lower is better), so plans covering different step
    counts per launch compare on useful throughput.  Both components are
    [infinity] for plans the sketch cannot price — they sort last, where
    the measurement path would reject them.  Pure and deterministic:
    safe to evaluate in worker domains. *)
val rank : Artemis_ir.Plan.t -> float * float
