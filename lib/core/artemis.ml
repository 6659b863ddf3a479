(* ARTEMIS facade: the Section VII end-to-end flow.

   {[
     let prog = Artemis.parse_file "jacobi.stc" in
     let r = Artemis.optimize_kernel (Artemis.first_kernel prog) in
     print_string (Artemis.cuda_of r)
   ]}

   Steps (paper, Section VII):
   1. generate a baseline version from the DSL pragma;
   2. profile it, derive (un)profitable optimizations, prune the space;
   3. hierarchical autotuning over the pruned space;
   4. profile the winner; emit textual hints and fission candidates;
   5. for time-iterated stencils, deep-tune the fusion degree and build a
      schedule for any iteration count with the opt(T) dynamic program. *)

module Ast = Artemis_dsl.Ast
module Diagnostic = Artemis_dsl.Diagnostic
module Check = Artemis_dsl.Check
module Frontend = Artemis_dsl.Frontend
module Instantiate = Artemis_dsl.Instantiate
module Analysis = Artemis_dsl.Analysis
module Pretty = Artemis_dsl.Pretty
module Device = Artemis_gpu.Device
module Counters = Artemis_gpu.Counters
module Predict = Artemis_exec.Predict
module Plan = Artemis_ir.Plan
module Validate = Artemis_ir.Validate
module Estimate = Artemis_ir.Estimate
module Kernel_facts = Artemis_ir.Kernel_facts
module Lint = Artemis_lint.Lint
module Static = Artemis_static.Static
module Analytic = Artemis_exec.Analytic
module Reference = Artemis_exec.Reference
module Kernel_exec = Artemis_exec.Kernel_exec
module Runner = Artemis_exec.Runner
module Eval = Artemis_exec.Eval
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
module Verify = Artemis_verify
module Obs = Artemis_obs
module Trace = Artemis_obs.Trace
module Metrics = Artemis_obs.Metrics
module Json = Artemis_obs.Json
module Journal = Artemis_obs.Journal
module Provenance = Artemis_obs.Provenance
module Bench_diff = Artemis_obs.Bench_diff

let version = "1.0.0"

let parse_string src =
  match Frontend.program src with
  | Ok prog -> prog
  | Error ds -> raise (Diagnostic.Rejected ds)

let parse_file path = parse_string (In_channel.with_open_bin path In_channel.input_all)

type result = {
  kernel : Instantiate.kernel;
  baseline : Analytic.measurement;
  baseline_profile : Classify.profile;
  tuned : Analytic.measurement;
  tuned_profile : Classify.profile;
  hints : Hints.hint list;
  fission_candidates : Instantiate.kernel list list;
      (** trivial and recompute candidate sets, when register-pressured *)
  explored : int;  (** configurations measured during tuning *)
  history : (string * float) list;  (** tuning trace: plan label -> TFLOPS *)
}

let profile_measurement (m : Analytic.measurement) =
  let prof = Classify.classify m.plan.device m.counters ~time_s:m.time_s in
  Differencing.resolve m prof

(** Optimize one kernel end to end.  [iterative] enables the fusion
    guideline; use [deep_tune] for the full variable-T flow. *)
let optimize_kernel ?(device = Device.p100) ?(iterative = false)
    ?(opts = Options.default) ?(max_degree = 1)
    ?(prerank_keep = Hierarchical.default_prerank_keep) ?pingpong
    (kernel : Instantiate.kernel) =
  Trace.with_span "optimize.kernel" ~attrs:[ ("kernel", Str kernel.kname) ]
  @@ fun () ->
  (* Step 1: baseline from the pragma. *)
  let baseline, baseline_profile =
    Trace.with_span "optimize.baseline" @@ fun () ->
    let baseline_plan = Lower.lower_with_pragma device kernel opts in
    let baseline =
      match Analytic.try_measure baseline_plan with
      | Some m -> m
      | None -> (
        (* The pragma's block shape may not be launchable under the kernel's
           register pressure; fall back to a small tiled shape. *)
        let tiled =
          Lower.lower device kernel
            { opts with Options.block = None; scheme = Options.Force_tiled }
        in
        match Validate.validate tiled with
        | Ok v -> Analytic.measure v
        | Error vs -> invalid_arg (Validate.describe tiled vs))
    in
    (baseline, profile_measurement baseline)
  in
  if Journal.enabled () then
    Journal.append "optimize.baseline"
      [ ("kernel", Json.Str kernel.kname);
        ("plan", Json.Str (Plan.label baseline.plan));
        ("tflops", Json.Float baseline.tflops);
        ( "verdict",
          Json.Str (Classify.verdict_to_string baseline_profile.verdict) ) ];
  (* Step 2: decisions prune the tuning space. *)
  let decisions = Hints.decide ~iterative baseline baseline_profile in
  let knobs =
    { (Hierarchical.knobs_of_decisions decisions) with
      Hierarchical.max_degree;
      prerank_keep }
  in
  (* Temporal blocking needs the ping-pong pair on the base plan; without
     one the degree stays an inert dimension of the space. *)
  let with_pair (p : Plan.t) =
    match pingpong with
    | Some (out, inp) ->
      { p with
        Plan.temporal = { Plan.no_temporal with Plan.pair = Some (out, inp) } }
    | None -> p
  in
  (* Step 3: hierarchical autotuning.  When profiling flags the kernel as
     DRAM-bound despite shared memory, ARTEMIS generates the global
     version as an alternative (Section IV-A); both versions are tuned
     and the better one kept. *)
  let tune_with opts =
    Hierarchical.tune ~knobs
      (with_pair
         (Lower.lower device kernel { opts with Options.block = None; unroll = None }))
  in
  let candidates =
    Trace.with_span "optimize.tune" @@ fun () ->
    tune_with opts
    :: (if decisions.prefer_global then
          [ tune_with { opts with Options.use_shared = false } ]
        else [])
  in
  let record =
    List.fold_left
      (fun acc c ->
        match (acc, c) with
        | None, c -> c
        | Some _, None -> acc
        | Some (a : Hierarchical.record), Some (b : Hierarchical.record) ->
          if b.best.tflops > a.best.tflops then
            Some { b with explored = a.explored + b.explored }
          else Some { a with explored = a.explored + b.explored })
      None candidates
    |> function
    | Some r -> r
    | None ->
      { Hierarchical.best = baseline; explored = 1; phase1_best = baseline; history = [] }
  in
  let tuned = if record.best.tflops >= baseline.tflops then record.best else baseline in
  (* Step 4: profile the winner, emit hints and fission candidates. *)
  Trace.with_span "optimize.finalize" @@ fun () ->
  let tuned_profile = profile_measurement tuned in
  let hints = Hints.hints ~iterative tuned tuned_profile in
  let final_decisions = Hints.decide ~iterative tuned tuned_profile in
  let n_outputs =
    List.filter_map Ast.written_array kernel.body |> List.sort_uniq compare |> List.length
  in
  let fission_candidates =
    if final_decisions.explore_fission && n_outputs > 1 then
      [ Fission.trivial kernel; Fission.recompute kernel ]
    else []
  in
  if Journal.enabled () then
    Journal.append "optimize.result"
      [ ("kernel", Json.Str kernel.kname);
        ("plan", Json.Str (Plan.label tuned.plan));
        ("tflops", Json.Float tuned.tflops);
        ("baseline_tflops", Json.Float baseline.tflops);
        ( "speedup",
          Json.Float
            (if baseline.tflops > 0.0 then tuned.tflops /. baseline.tflops
             else 0.0) );
        ("explored", Json.Int record.explored) ];
  {
    kernel; baseline; baseline_profile; tuned; tuned_profile; hints;
    fission_candidates; explored = record.explored; history = record.history;
  }

(** Deep-tune an iterative ping-pong program for arbitrary T: the
    per-time-tile versions plus a fusion schedule for the program's own
    iteration count (Section VI-A). *)
type deep_result = {
  deep : Deep.result;
  schedule : int list;
  predicted_time : float;
}

let deep_tune ?(device = Device.p100) ?(opts = Options.default) ?max_tile
    ?max_degree ?prerank_keep (prog : Ast.program) =
  Trace.with_span "deep.tune" @@ fun () ->
  let sched = Instantiate.schedule prog in
  match List.find_map Fusion.pingpong_of_item sched with
  | None -> invalid_arg "deep_tune: program has no ping-pong time loop"
  | Some (t, k, out, inp) ->
    let plan_of fused =
      Lower.lower device fused { opts with Options.block = None; unroll = None }
    in
    let deep = Deep.explore ?max_tile ?max_degree ?prerank_keep ~plan_of k ~out ~inp in
    if deep.versions = [] then { deep; schedule = []; predicted_time = infinity }
    else
      let schedule, predicted_time = Deep.optimal_schedule deep ~t in
      { deep; schedule; predicted_time }

(** CUDA source of the tuned plan. *)
let cuda_of (r : result) = Cuda.emit r.tuned.plan

let report_record (r : result) =
  {
    Report.kernel = r.kernel;
    baseline = r.baseline;
    baseline_profile = r.baseline_profile;
    tuned = r.tuned;
    tuned_profile = r.tuned_profile;
    hints = r.hints;
    explored = r.explored;
    history = r.history;
  }

(** Human-readable optimization report for a result. *)
let report_of (r : result) = Report.render (report_record r)

(** The same report as stable JSON (the [--report-json] payload). *)
let report_json_of (r : result) = Report.render_json (report_record r)

(** First kernel launched by a program (time loops flattened). *)
let first_kernel (prog : Ast.program) =
  match Instantiate.kernels (Instantiate.schedule prog) with
  | k :: _ -> k
  | [] -> invalid_arg "first_kernel: program launches nothing"
