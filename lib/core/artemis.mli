(** ARTEMIS facade: the paper's Section VII end-to-end flow, plus
    re-exports of every sub-library a user program needs.

    {[
      let prog = Artemis.parse_file "jacobi.stc" in
      let r = Artemis.optimize_kernel (Artemis.first_kernel prog) in
      print_string (Artemis.cuda_of r)
    ]} *)

module Ast = Artemis_dsl.Ast
module Lexer = Artemis_dsl.Lexer
module Parser = Artemis_dsl.Parser
module Check = Artemis_dsl.Check
module Instantiate = Artemis_dsl.Instantiate
module Analysis = Artemis_dsl.Analysis
module Pretty = Artemis_dsl.Pretty
module Device = Artemis_gpu.Device
module Counters = Artemis_gpu.Counters

(** Measurement-free pre-ranking: [Timing.evaluate] on a one-block
    counter sketch (see docs/MODEL.md). *)
module Predict = Artemis_exec.Predict
module Plan = Artemis_ir.Plan
module Validate = Artemis_ir.Validate
module Estimate = Artemis_ir.Estimate
module Kernel_facts = Artemis_ir.Kernel_facts

(** Whole-pipeline diagnostics (see docs/LINT.md). *)
module Lint = Artemis_lint.Lint

(** The affine dataflow analyzer: exact footprints, dependence testing,
    and the A7xx lint back ends (see docs/ANALYSIS.md). *)
module Static = Artemis_static.Static

module Analytic = Artemis_exec.Analytic
module Reference = Artemis_exec.Reference
module Kernel_exec = Artemis_exec.Kernel_exec
module Runner = Artemis_exec.Runner

(** Statement compilation and the executor schedule value
    ([Eval.schedule] — see docs/PERF.md). *)
module Eval = Artemis_exec.Eval

(** Iteration-space boxes and the interior/shell decomposition. *)
module Region = Artemis_exec.Region
module Options = Artemis_codegen.Options
module Lower = Artemis_codegen.Lower
module Cuda = Artemis_codegen.Cuda_emit
module Classify = Artemis_profile.Classify
module Differencing = Artemis_profile.Differencing
module Hints = Artemis_profile.Hints
module Report = Artemis_profile.Report
module Hierarchical = Artemis_tune.Hierarchical
module Deep = Artemis_tune.Deep
module Measure_cache = Artemis_tune.Measure_cache
module Pool = Artemis_par.Pool
module Fusion = Artemis_fuse.Fusion
module Fission = Artemis_fuse.Fission
module Suite = Artemis_bench.Suite

(** Observability: span tracing, metrics, JSON (see docs/OBSERVABILITY.md). *)
module Obs = Artemis_obs

module Trace = Artemis_obs.Trace
module Metrics = Artemis_obs.Metrics
module Json = Artemis_obs.Json
module Journal = Artemis_obs.Journal
module Provenance = Artemis_obs.Provenance
module Bench_diff = Artemis_obs.Bench_diff

val version : string

(** Parse and semantically check DSL source text.
    @raise Lexer.Lex_error on a malformed token
    @raise Parser.Parse_error on a syntax error
    @raise Check.Semantic_error when the program fails the semantic check *)
val parse_string : string -> Ast.program

(** [parse_string] on the contents of the file at [path].
    @raise Sys_error when the file cannot be read; otherwise raises as
    [parse_string] does *)
val parse_file : string -> Ast.program

(** The outcome of the end-to-end optimization flow (Section VII). *)
type result = {
  kernel : Instantiate.kernel;
  baseline : Analytic.measurement;  (** pragma-driven baseline version *)
  baseline_profile : Classify.profile;
  tuned : Analytic.measurement;  (** hierarchical-autotuning winner *)
  tuned_profile : Classify.profile;
  hints : Hints.hint list;  (** the textual guidance of Section IV-A *)
  fission_candidates : Instantiate.kernel list list;
      (** trivial and recompute candidate sets when register-pressured *)
  explored : int;  (** configurations measured during tuning *)
  history : (string * float) list;  (** tuning trace: plan label -> TFLOPS *)
}

(** Optimize one kernel end to end: baseline from the pragma, profile,
    prune, hierarchically autotune, profile the winner, emit hints and
    fission candidates.  [iterative] enables the fusion guideline.  With
    [pingpong] naming the kernel's (out, inp) buffer pair and
    [max_degree] > 1 (default 1), phase 2 also explores degree-N temporal
    blocking up to that degree.  [prerank_keep] (default
    [Hierarchical.default_prerank_keep]) is the percentage of each
    candidate batch the pre-rank ([Predict.rank]) keeps for
    measurement; 100 or more measures every candidate.
    @raise Invalid_argument when neither the pragma's plan nor the
    default tiled plan can launch *)
val optimize_kernel :
  ?device:Device.t -> ?iterative:bool -> ?opts:Options.t ->
  ?max_degree:int -> ?prerank_keep:float -> ?pingpong:string * string ->
  Instantiate.kernel -> result

type deep_result = {
  deep : Deep.result;
  schedule : int list;  (** fusion schedule for the program's own T *)
  predicted_time : float;
}

(** Deep-tune an iterative ping-pong program (Section VI-A).  With
    [max_degree] > 1 (default 1) each fused version's tuner also picks a
    temporal-blocking degree, so one launch covers (fusion width x
    degree) time steps and the opt(T) schedule composes over both.
    [prerank_keep] is each version's pre-rank cut, as for
    {!optimize_kernel}.
    @raise Invalid_argument when the program has no ping-pong time loop *)
val deep_tune :
  ?device:Device.t -> ?opts:Options.t -> ?max_tile:int -> ?max_degree:int ->
  ?prerank_keep:float -> Ast.program -> deep_result

(** CUDA source of the tuned plan. *)
val cuda_of : result -> string

(** Human-readable optimization report (stencil characteristics, baseline
    vs tuned measurements, bottlenecks, tuning trace, hints). *)
val report_of : result -> string

(** The same report serialized as stable JSON — measurements, profiles,
    hints, and the full tuning history ([Report.to_json] schema). *)
val report_json_of : result -> string

(** First kernel launched by a program (time loops flattened).
    @raise Invalid_argument when the program launches nothing *)
val first_kernel : Ast.program -> Instantiate.kernel
