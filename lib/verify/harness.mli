(** The fuzz harness: generate cases, sample trials, run the oracle,
    shrink failures, and report.

    Deterministic in [seed]: the same [(seed, cases)] pair replays the
    same programs, trials, and verdicts.  Instrumented with
    [Artemis_obs] ([verify.*] spans and the [verify.cases_generated],
    [verify.plans_checked], [verify.mismatches], [verify.shrink_steps]
    counters). *)

type finding = {
  case_index : int;
  trial : Sampler.trial;
  mismatches : Oracle.mismatch list;  (** of the shrunk repro *)
  prog : Artemis_dsl.Ast.program;  (** shrunk minimal repro *)
  shrink_steps : int;
}

type summary = {
  seed : int;
  cases : int;
  trials_run : int;
  trials_skipped : int;
  plans_checked : int;
  shrink_steps : int;
  findings : finding list;
}

(** Run the harness.  When [dump_dir] is given, each finding is written
    there as a replayable [.stc] (pretty-printed, re-parseable) next to
    a [.repro.txt] with the trial description and mismatch list.  With
    [~lint:true] the oracle also enforces the third invariant: no
    Error-level lint finding on any accepted (program, plan) pair.
    [schedule] (default [Eval.Rows]) is the executors'
    schedule, passed to every {!Oracle.check}. *)
val run :
  ?dump_dir:string -> ?lint:bool -> ?schedule:Artemis_exec.Eval.schedule ->
  seed:int -> cases:int -> unit -> summary

(** Files a finding would be dumped to, and their contents — exposed so
    the CLI and tests share the exact dump format.  Returns
    [(path, contents)] pairs relative to [dir]. *)
val render_finding : seed:int -> finding -> (string * string) list

val summary_to_string : summary -> string
