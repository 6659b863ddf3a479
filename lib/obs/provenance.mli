(** Plan-provenance reports: the renderer behind [artemisc explain].

    Input is the decision-journal event stream ({!Journal.events}, or a
    {!Journal.write} JSONL file parsed back); output is a deterministic report that
    accounts for every candidate the tuner touched — won, lost (with
    margin), lint-pruned (with code), or failed — plus cache economics,
    a roofline-style traffic breakdown of each winner against the
    machine model's α/β knees, deep-tuning tipping-point decisions, fuzz
    verdicts, and executor interior/halo splits.

    Pure [Json -> Json]: no dependency on the tuner or GPU model, so the
    report can be rebuilt from a journal file alone. *)

(** Build the report document.  [program] labels the report; unknown
    event kinds are ignored, so journals from newer writers degrade
    gracefully. *)
val report : ?program:string -> Json.t list -> Json.t

(** Render a {!report} document as a human-readable multi-section
    summary. *)
val render : Json.t -> string
