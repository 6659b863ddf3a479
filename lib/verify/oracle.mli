(** The differential oracle: run one trial and cross-check the two
    invariants the block executor promises.

    {ol
    {- {b Outputs}: every copied-out grid after executing the plan(s)
       through [Kernel_exec.run] must equal the [Reference] interpreter's
       result on the {e original} program schedule — bit-exactly for
       plain and fissioned trials, and bit-exactly on the deep interior
       (margin [T * order + 2]) for time-fused trials, whose boundary
       semantics legitimately differ.}
    {- {b Counters}: each plan's fast block-class counter summation
       must agree with the exact per-block loop
       ([Traffic.total_counters ~exact:true]).}}

    With [~lint:true] a third invariant is checked: no Error-level
    [Artemis_lint] finding on any accepted (program, plan) pair — the
    generator only produces programs the linter must consider sound, and
    plans that validate must also lint clean of errors.

    On self-dependent programs (Gauss-Seidel/SOR cases) a fourth
    invariant pins the wavefront schedule: when [schedule] is [Rows],
    re-running both executors under [Interpret] (the point-wise
    interpreter) must reproduce every copied-out grid bit for bit.

    A fifth invariant pins the affine analyzer's footprints
    ([Artemis_static.Static]) against dynamic behavior on the program's
    own schedule: every statement's statically computed in-bounds
    footprint must contain exactly the domain points the executed guard
    accepts.  The executors sweep exactly that box and skip the rest of
    each region ([Eval.split_interior]), so this is the soundness proof
    obligation behind skipping the guard, checked on every accepted
    case.
    Self-dependence verdicts and hyperplanes have a single engine (the
    executors schedule by [Static]'s), so they are checked by running
    the code: outputs (invariant 1) and wavefront vs guarded (invariant
    4). *)

type mismatch =
  | Output_mismatch of { array : string; diff : float; margin : int }
  | Counter_mismatch of { plan : string; detail : string }
      (** fast class summation vs exact per-block loop *)
  | Lint_error of { code : string; detail : string }
      (** an Error-level lint finding on an accepted (program, plan) pair *)
  | Wavefront_mismatch of { executor : string; array : string; diff : float }
      (** wavefront vs point-wise interpreter runs of the same executor
          differ *)
  | Static_mismatch of { kernel : string; stmt : int; detail : string }
      (** the affine analyzer's footprint contradicts the executed
          guards *)
  | Crash of { detail : string }
      (** the pipeline raised on a checked program + valid plan *)

val mismatch_to_string : mismatch -> string

type verdict =
  | Checked of { plans : int; mismatches : mismatch list }
  | Skipped of string
      (** variant inapplicable or no launchable plan — not a finding *)

(** [schedule] (default [Eval.Rows]) is how both executors sweep
    statements. *)
val check :
  ?lint:bool -> ?schedule:Artemis_exec.Eval.schedule -> Artemis_dsl.Ast.program ->
  Sampler.trial -> verdict
