(** Whole-pipeline stencil diagnostics.

    A unified linter over the three layers of the ARTEMIS pipeline:

    - {b DSL/kernel level} ([lint_program], [lint_kernel]): uninitialized
      reads across the host schedule, out-of-bounds accesses and empty
      interiors from halo analysis, dead statements over the dependence
      graph, unused declarations/formals/stencils, dead stores, and the
      recomputation halo fusion pays for.
    - {b Plan level} ([lint_plan]): launch-limit and shared-budget
      violations, [#pragma occupancy] feasibility against the register
      stepping rule, predicted spills, shared-memory RAW/WAR hazards in
      the lowered statement order, uncoalesced global reads, and
      bank-conflict-prone shared row widths.
    - {b Pipeline integration}: the tuner codes the plans
      [Validate.validate] rejects with [launch_code] (counted in
      [tuner.configs_lint_pruned]), the fuzz
      oracle asserts no Error finding on accepted (program, plan) pairs,
      and [artemisc lint] renders findings as text or JSON.

    Every finding carries a stable code (catalogued in [catalog] and
    docs/LINT.md).  Severities: an [Error] means the pipeline would
    produce wrong results or an unlaunchable kernel; a [Warning] flags a
    hazard or a performance trap that the block simulator itself does not
    trip over; [Info] is advisory.

    [lint_program]/[lint_kernel] take a program [Check.check_all]
    accepts, which therefore instantiates (use [semantic_findings] to
    surface the checker's diagnostics in the same format). *)

type severity =
  | Error
  | Warning
  | Info

type phase =
  | Dsl  (** program/kernel-level analysis *)
  | Plan  (** lowered-plan-level analysis *)

type finding = {
  code : string;  (** stable diagnostic code, e.g. "A201" *)
  severity : severity;
  phase : phase;
  location : string;  (** program / kernel / plan the finding is about *)
  message : string;
  hint : string;  (** how to fix it; may be empty *)
}

(** Every diagnostic code with its severity and a one-line summary, in
    code order — the source of truth docs/LINT.md documents. *)
val catalog : (string * severity * string) list

(** Wrap [Check.check_all]'s diagnostics as A001 findings located at
    [location] (the program's file or name). *)
val semantic_findings : location:string -> Artemis_dsl.Diagnostic.t list -> finding list

(** Kernel-level findings: out-of-extent accesses (A201 — Warning, not
    Error, because the emitted per-statement guard skips such points),
    empty interior (A202), recompute halo (A203), dead statements
    (A301), self-dependence schedulability (A601/A602), and the affine
    analyzer's proven-empty accesses (A701).  Static races (A703) are
    plan-side only: see {!static_plan_errors}. *)
val lint_kernel : Artemis_dsl.Instantiate.kernel -> finding list

(** Program-level findings: everything [lint_kernel] reports for each
    distinct scheduled kernel, plus uninitialized reads (A103), unused
    declarations/formals/stencils (A302/A303/A304), dead stores (A305),
    and the affine region-level must-write dataflow (A702).  The program
    must be one [Check.check_all] accepts. *)
val lint_program : Artemis_dsl.Ast.program -> finding list

(** Plan-level findings: launch violations (A403/A405), occupancy-pragma
    feasibility (A401/A404), spills (A402), shared-staging hazards
    (A101/A102), coalescing (A501), bank conflicts (A502), and the
    static race detector (A703). *)
val lint_plan : Artemis_ir.Plan.t -> finding list

(** The code of a [Validate] violation's launch finding: A403 for a
    shared-memory overflow (it has its own fix, demotion), A405 for
    every other limit. *)
val launch_code : Artemis_ir.Validate.violation -> string

(** The launch finding of one of a plan's [Validate] violations, coded
    by [launch_code].  Pure: it counts nothing in [lint.findings]. *)
val launch_finding : Artemis_ir.Plan.t -> Artemis_ir.Validate.violation -> finding

(** Just the Error-level launch findings (A403/A405), one
    [launch_finding] per violation, so [launch_errors p = []] iff
    [Validate.violations p = []]. *)
val launch_errors : Artemis_ir.Plan.t -> finding list

(** Just the A703 static-race findings for a plan — dependences the
    affine engine ([Artemis_static.Static]) proves that the plan's tile
    fan-out or wavefront hyperplane would execute out of order.  The
    tuner prunes the launchable candidates it kept on it (counted in
    [tuner.configs_static_pruned]). *)
val static_plan_errors : Artemis_ir.Plan.t -> finding list

val errors : finding list -> finding list

(** Human-readable report: findings deduplicated and sorted by
    (phase, code, location) — byte-stable regardless of the order the
    analyses emitted them — plus a summary line; ["no findings\n"] when
    empty. *)
val report : finding list -> string

(** [{"schema_version"; "errors"; "warnings"; "findings": [...]}], with
    the findings deduplicated and ordered exactly as [report]. *)
val findings_to_json : finding list -> Artemis_obs.Json.t
