(* Hierarchical autotuning (paper, Section V): tune in steps instead of
   exploring the cross product of every knob.

   Phase 1 sweeps the high-impact parameters — thread-block shape and
   unroll factors — with serial streaming enabled by default when shared
   memory is used, stepping maxrregcount upward so only spill-free
   configurations run.  Phase 2 takes the top candidates and toggles the
   cheaper refinements: prefetching, concurrent streaming, load/compute
   perspective, distribution, retiming, folding.  Profiling guidance
   (Hints.decisions) prunes both phases. *)

module Plan = Artemis_ir.Plan
module Validate = Artemis_ir.Validate
module Lint = Artemis_lint.Lint
module Analytic = Artemis_exec.Analytic
module Predict = Artemis_exec.Predict
module Classify = Artemis_profile.Classify
module Hints = Artemis_profile.Hints
module Trace = Artemis_obs.Trace
module Metrics = Artemis_obs.Metrics
module Journal = Artemis_obs.Journal
module Json = Artemis_obs.Json
module Pool = Artemis_par.Pool
module Device = Artemis_gpu.Device
module Counters = Artemis_gpu.Counters
module Timing = Artemis_gpu.Timing

type record = {
  best : Analytic.measurement;
  explored : int;  (** configurations measured *)
  phase1_best : Analytic.measurement;
  history : (string * float) list;  (** label -> TFLOPS, best-first, capped *)
}

let better (a : Analytic.measurement option) (b : Analytic.measurement) =
  match a with
  | None -> Some b
  | Some a -> if b.tflops > a.tflops then Some b else Some a

(* Measure with the non-spill register-stepping rule; falls back to 255
   with spills so register-doomed kernels (maxfuse rhs4sgcurv) are still
   measurable. *)
let stepped (p : Plan.t) =
  match Space.min_nonspill_regs p with
  | Some r -> { p with max_regs = r }
  | None -> { p with max_regs = 255 }

let m_configs_measured = Metrics.counter "tuner.configs_measured"
let m_tuner_runs = Metrics.counter "tuner.runs"
let m_configs_prerank_pruned = Metrics.counter "tuner.configs_prerank_pruned"

(* Pre-ranking: before paying a full analytic measurement per candidate,
   score every launchable candidate with the measurement-free one-block
   sketch ([Predict.rank]) and only measure the slice predicted fastest.
   The knobs' [prerank_keep] is the percentage kept; >= 100 disables
   the filter.
   The default is calibrated on the committed benchmark suite: the
   chosen plan is unchanged while most measurements are skipped (gated
   by [prerank_plan_equal] in BENCH_tuner.json and `make model-smoke`). *)
let default_prerank_keep = 25.0

(* What the tuner learns of one candidate. *)
type outcome =
  | Lint_pruned of string
      (** the code of the register-stepped plan's first launch violation *)
  | Prerank_pruned of float  (** predicted seconds, outside the kept slice *)
  | Static_pruned of Lint.finding
  | Measured of Analytic.measurement * [ `Hit | `Miss ] * float option
      (** with the cache outcome and, when ranked, predicted seconds *)

(* The gate and the pre-rank of one batch.  Each candidate's
   register-stepped plan (what measurement runs: occupancy depends on
   the register budget) passes [Validate.validate] exactly once; only
   launchable plans are scored, and the top [pct] percent (at least
   one) of the whole batch, unlaunchable candidates included, are kept.
   Gating and scoring fan out on the pool; the cut breaks score ties by
   candidate index, so the kept set is order-deterministic.  With the
   filter off ([pct] >= 100) or trivial (one candidate) every launchable
   candidate is kept, unscored.  Per candidate, in order: [Ok] the kept
   plan with its predicted seconds when ranked, or [Error] the outcome
   already decided. *)
let ranks ~pct n = pct < 100.0 && n > 1

let gate ~pct ~label plans =
  let n = List.length plans in
  let ranking = ranks ~pct n in
  let gated =
    Pool.map ~label
      (fun p ->
        let sp = stepped p in
        match Validate.validate sp with
        | Error vs -> Error (Lint.launch_code (List.hd vs))
        | Ok v -> Ok (v, if ranking then Some (Predict.rank sp) else None))
      plans
  in
  let keep = Array.make n (not ranking) in
  if ranking then begin
    let keep_n = max 1 (int_of_float (ceil (float_of_int n *. pct /. 100.0))) in
    List.mapi (fun i g -> (i, g)) gated
    |> List.filter_map (function i, Ok (_, Some (s, _)) -> Some (s, i) | _, _ -> None)
    |> List.sort (fun ((a : float), i) (b, j) ->
           match compare a b with 0 -> compare i j | c -> c)
    |> List.iteri (fun rank (_, i) -> if rank < keep_n then keep.(i) <- true)
  end;
  List.mapi
    (fun i g ->
      match g with
      | Error f -> Error (Lint_pruned f)
      | Ok (_, Some (_, t)) when not keep.(i) -> Error (Prerank_pruned t)
      | Ok (v, predicted) -> Ok (v, Option.map snd predicted))
    gated

(* The rest of considering a kept candidate — the static race lint and
   the measurement through the cache — is pure and side-effect-light,
   so it runs on pool workers; all search accounting (metrics, trace
   decisions, journal, best-so-far folds) stays on the main domain,
   applied in canonical candidate order so parallel runs are
   bit-identical to serial ones. *)
let judge = function
  | Error decided -> decided
  | Ok (v, predicted) -> (
    (* The static race detector (A703) prunes like a launch error: a
       plan whose fan-out would execute a proven dependence out of order
       is not a measurable configuration. *)
    match Lint.static_plan_errors (v : Validate.valid :> Plan.t) with
    | f :: _ -> Static_pruned f
    | [] ->
      let m, cache = Measure_cache.try_measure_outcome v in
      Measured (m, cache, predicted))

(* One journal event per temporally-blocked configuration considered: the
   degree, halo policy, and buffer strategy with the tuner's verdict.
   Appended from the main-domain fold (canonical candidate order), so
   jobs=1 and jobs=N runs journal byte-identically. *)
let journal_temporal ~phase ~decision ?(extra = []) (p : Plan.t) =
  let tb = p.Plan.temporal in
  if tb.Plan.degree > 1 && Journal.enabled () then
    Journal.append "tuner.temporal"
      ([ ("phase", Json.Str phase); ("plan", Json.Str (Plan.label p));
         ("degree", Json.Int tb.degree);
         ("halo", Json.Str (Plan.halo_policy_to_string tb.halo));
         ("buffers", Json.Str (Plan.tbuffer_to_string tb.tbuf));
         ("decision", Json.Str decision) ]
      @ extra)

type knobs = {
  try_unroll : bool;
  try_prefetch : bool;
  try_concurrent : bool;
  try_perspective : bool;
  try_retime : bool;
  try_fold : bool;
  unroll_bound : int;
  top_n : int;  (** phase-1 candidates promoted to phase 2 *)
  max_degree : int;
      (** largest temporal-blocking degree phase 2 may try (1 = off);
          explored only when the base plan names its ping-pong pair *)
  prerank_keep : float;  (** pre-rank keep percentage (>= 100 = off) *)
}

let default_knobs =
  {
    try_unroll = true;
    try_prefetch = true;
    try_concurrent = true;
    try_perspective = true;
    try_retime = true;
    try_fold = true;
    unroll_bound = 8;
    top_n = 4;
    max_degree = 1;
    prerank_keep = default_prerank_keep;
  }

(** Derive knob settings from profiling decisions (Section IV-A): e.g.
    unrolling off under register pressure or for compute-bound kernels. *)
let knobs_of_decisions (d : Hints.decisions) =
  {
    default_knobs with
    try_unroll = d.enable_unroll;
    (* Retiming and folding are phase-2 toggles on a handful of
       candidates — cheap enough to always explore, and they keep the
       ARTEMIS space a superset of the STENCILGEN strategy. *)
    try_retime = true;
    try_fold = true;
    unroll_bound = (if d.enable_unroll then 8 else 1);
  }

(* Phase 2's expansion of promoted candidates into their refinement
   variants, in canonical order.  The retimed kernel is built once per
   (kernel value, stream dimension) and the fold groups once per kernel
   value, so every variant of a search shares one retimed kernel and the
   per-kernel caches ([Kernel_facts], [Traffic]) see one value for it. *)
let variants (knobs : knobs) (candidates : Plan.t list) =
  let once cache same key f =
    match List.find_opt (fun (key', _) -> same key' key) !cache with
    | Some (_, v) -> v
    | None ->
      let v = f () in
      cache := (key, v) :: !cache;
      v
  in
  let retimes = ref [] and folds = ref [] in
  let retimed k dim =
    once retimes
      (fun (k', dim') (k, dim) -> k' == k && dim' = dim)
      (k, dim)
      (fun () -> Artemis_codegen.Retime.apply k ~dim_index:dim)
  in
  let fold_groups k = once folds ( == ) k (fun () -> Artemis_dsl.Analysis.foldable_groups k) in
  let variants_of (candidate : Plan.t) =
    let with_prefetch =
      if knobs.try_prefetch then [ candidate; { candidate with Plan.prefetch = true } ]
      else [ candidate ]
    in
    let with_persp =
      if knobs.try_perspective then
        List.concat_map
          (fun (p : Plan.t) ->
            [ p; { p with perspective = Plan.Input_persp };
              { p with perspective = Plan.Mixed_persp } ])
          with_prefetch
      else with_prefetch
    in
    let retime_variant (p : Plan.t) =
      (* Retiming needs a homogenizable body; carry the decomposed
         form so execution and accounting agree. *)
      let dim = match Plan.stream_dim p with Some s -> s | None -> 0 in
      match retimed p.kernel dim with
      | Some k' -> Some { p with kernel = k'; retime = true }
      | None -> None
    in
    let with_retime =
      if knobs.try_retime then
        List.concat_map
          (fun (p : Plan.t) ->
            match retime_variant p with
            | Some rp -> [ p; rp ]
            | None -> [ p ])
          with_persp
      else with_persp
    in
    let with_conc =
      match (knobs.try_concurrent, candidate.scheme) with
      | true, Plan.Serial_stream s ->
        let extent = candidate.kernel.domain.(s) in
        List.concat_map
          (fun (p : Plan.t) ->
            p
            :: List.map
                 (fun chunk -> { p with scheme = Plan.Concurrent_stream (s, chunk) })
                 (Space.chunk_candidates ~extent))
          with_retime
      | _ -> with_retime
    in
    let with_fold =
      if knobs.try_fold then
        List.concat_map
          (fun (p : Plan.t) ->
            match fold_groups p.kernel with
            | [] -> [ p ]
            | groups -> [ p; { p with fold = groups } ])
          with_conc
      else with_conc
    in
    let with_temporal =
      (* Degree-N temporal blocking needs to know the ping-pong pair;
         a base plan that doesn't name one (or a max_degree of 1)
         keeps the space temporal-free.  Illegal degrees are pruned
         downstream: A802 for dependence violations, launch lints for
         shared/register overflow of the deeper halo windows. *)
      match
        ( candidate.Plan.temporal.pair,
          Space.degree_candidates ~max_degree:knobs.max_degree )
      with
      | Some _, (_ :: _ as degrees) ->
        List.concat_map
          (fun (p : Plan.t) ->
            p
            :: List.concat_map
                 (fun degree ->
                   List.concat_map
                     (fun halo ->
                       List.map
                         (fun tbuf ->
                           { p with
                             Plan.temporal =
                               { p.Plan.temporal with Plan.degree; halo; tbuf };
                           })
                         [ Plan.Shared_double; Plan.Register_cycle ])
                     [ Plan.Halo_recompute; Plan.Halo_exchange ])
                 degrees)
          with_fold
      | _ -> with_fold
    in
    with_temporal
  in
  List.concat_map variants_of candidates

(** Tune a base plan.  The base fixes the scheme, placement, and kernel;
    the tuner varies block/unroll (phase 1) then the refinement toggles
    (phase 2).  Returns [None] only when no valid configuration exists. *)
let tune ?(knobs = default_knobs) (base : Plan.t) =
  let rank = Plan.rank base in
  let explored = ref 0 in
  let history = ref [] in
  (* One structured event per considered configuration: the decision
     trail of the tuner (kept / dropped / pruned, with the measured
     TFLOPS and bottleneck verdict).  The classification is only
     computed when a trace sink is attached. *)
  let prune ~phase ~reason plan =
    Metrics.incr (Metrics.counter "tuner.configs_pruned" ~labels:[ ("reason", reason) ]);
    if Trace.enabled () then
      Trace.instant "tuner.config"
        ~attrs:
          [ ("phase", Str phase); ("plan", Str (Plan.label plan));
            ("decision", Str "pruned"); ("reason", Str reason) ]
  in
  let cache_str = function `Hit -> "hit" | `Miss -> "miss" in
  let consider_result ~phase acc plan = function
    | Lint_pruned code ->
      Metrics.incr
        (Metrics.counter "tuner.configs_lint_pruned" ~labels:[ ("code", code) ]);
      prune ~phase ~reason:("lint:" ^ code) plan;
      if Journal.enabled () then
        Journal.append "tuner.candidate"
          [ ("phase", Json.Str phase); ("plan", Json.Str (Plan.label plan));
            ("decision", Json.Str "lint-pruned");
            ("lint_code", Json.Str code) ];
      journal_temporal ~phase ~decision:"lint-pruned"
        ~extra:[ ("lint_code", Json.Str code) ] plan;
      acc
    | Static_pruned (f : Lint.finding) ->
      Metrics.incr
        (Metrics.counter "tuner.configs_static_pruned" ~labels:[ ("code", f.code) ]);
      prune ~phase ~reason:("static:" ^ f.code) plan;
      if Journal.enabled () then begin
        Journal.append "tuner.candidate"
          [ ("phase", Json.Str phase); ("plan", Json.Str (Plan.label plan));
            ("decision", Json.Str "static-pruned");
            ("lint_code", Json.Str f.code) ];
        (* The dedicated event carries the proof detail (which statement,
           which distances) so explain can say why the plan is racy. *)
        Journal.append "tuner.static"
          [ ("phase", Json.Str phase); ("plan", Json.Str (Plan.label plan));
            ("code", Json.Str f.code); ("detail", Json.Str f.message) ]
      end;
      journal_temporal ~phase ~decision:"static-pruned"
        ~extra:[ ("lint_code", Json.Str f.code) ] plan;
      acc
    | Prerank_pruned s ->
      Metrics.incr m_configs_prerank_pruned;
      prune ~phase ~reason:"prerank" plan;
      if Journal.enabled () then
        Journal.append "tuner.candidate"
          [ ("phase", Json.Str phase); ("plan", Json.Str (Plan.label plan));
            ("decision", Json.Str "prerank-pruned");
            ("predicted_time_s", Json.Float s) ];
      journal_temporal ~phase ~decision:"prerank-pruned"
        ~extra:[ ("predicted_time_s", Json.Float s) ] plan;
      acc
    | Measured ((m : Analytic.measurement), cache, predicted) ->
      (* When pre-ranking is active the surviving candidates carry their
         model score into the journal, so explain can put prediction and
         measurement side by side for the winner. *)
      let predicted_field =
        match predicted with
        | Some s -> [ ("predicted_time_s", Json.Float s) ]
        | None -> []
      in
      incr explored;
      Metrics.incr m_configs_measured;
      let kept =
        match acc with
        | None -> true
        | Some (a : Analytic.measurement) -> m.tflops > a.tflops
      in
      if Trace.enabled () then begin
        let prof = Classify.classify m.plan.device m.counters ~time_s:m.time_s in
        Trace.instant "tuner.config"
          ~attrs:
            [ ("phase", Str phase); ("plan", Str (Plan.label m.plan));
              ("tflops", Float m.tflops);
              ("verdict", Str (Classify.verdict_to_string prof.verdict));
              ("decision", Str (if kept then "keep" else "drop")) ]
      end;
      if Journal.enabled () then
        (* The full predicted-traffic record: this is what explain's
           roofline breakdown renders, so every byte class and both FLOP
           totals go in, not just the score. *)
        Journal.append "tuner.candidate"
          ([ ("phase", Json.Str phase); ("plan", Json.Str (Plan.label m.plan));
            ("decision", Json.Str (if kept then "keep" else "drop"));
            ("cache", Json.Str (cache_str cache));
            ("tflops", Json.Float m.tflops); ("time_s", Json.Float m.time_s);
            ( "bottleneck",
              Json.Str (Timing.bound_to_string m.breakdown.bottleneck) );
            ("useful_flops", Json.Float m.counters.useful_flops);
            ("total_flops", Json.Float m.counters.total_flops);
            ("dram_bytes", Json.Float m.counters.dram_bytes);
            ("tex_bytes", Json.Float m.counters.tex_bytes);
            ("shm_bytes", Json.Float m.counters.shm_bytes);
            ("spill_bytes", Json.Float m.counters.spill_bytes);
            ("oi_dram", Json.Float (Counters.oi_dram m.counters));
            ("oi_tex", Json.Float (Counters.oi_tex m.counters));
            ("oi_shm", Json.Float (Counters.oi_shm m.counters)) ]
          @ predicted_field);
      journal_temporal ~phase
        ~decision:(if kept then "keep" else "drop")
        ~extra:
          [ ("tflops", Json.Float m.tflops);
            ("dram_bytes", Json.Float m.counters.dram_bytes) ]
        m.plan;
      if List.length !history < 64 then
        history := (Plan.label m.plan, m.tflops) :: !history;
      better acc m
  in
  (* Gate and pre-rank the batch, fan the judging out, then fold the
     outcomes on this domain in the candidates' canonical order — same
     accounting, same winner, and the same tie-breaking as a serial
     sweep.  The [tuner.prerank] summary, the metrics and every journal
     event happen here on the main domain, so jobs=1 and jobs=N runs
     stay byte-identical. *)
  let consider_all ~phase ~label acc plans =
    let verdicts = gate ~pct:knobs.prerank_keep ~label:(label ^ ".predict") plans in
    let n = List.length plans in
    if Journal.enabled () && ranks ~pct:knobs.prerank_keep n then begin
      let count f = List.length (List.filter f verdicts) in
      Journal.append "tuner.prerank"
        [ ("phase", Json.Str phase); ("candidates", Json.Int n);
          ("kept", Json.Int (count Result.is_ok));
          ("pruned", Json.Int (count (function Error (Prerank_pruned _) -> true | _ -> false)));
          ("keep_pct", Json.Float knobs.prerank_keep) ]
    end;
    let outcomes = Pool.map ~label judge verdicts in
    List.fold_left2 (consider_result ~phase) acc plans outcomes
  in
  Metrics.incr m_tuner_runs;
  (* One header event per search: the machine-model constants explain
     needs to rebuild the roofline without re-opening the device table. *)
  if Journal.enabled () then
    Journal.append "tuner.run"
      [ ("kernel", Json.Str base.kernel.kname);
        ("device", Json.Str base.device.name);
        ("alpha_tflops", Json.Float (base.device.peak_dp_flops /. 1e12));
        ("knee_dram", Json.Float (Device.knee_dram base.device));
        ("knee_tex", Json.Float (Device.knee_tex base.device));
        ("knee_shm", Json.Float (Device.knee_shm base.device));
        ("prerank_keep", Json.Float knobs.prerank_keep) ];
  (* ---- phase 1: block shapes x unroll vectors ---- *)
  let blocks =
    Space.block_candidates ~rank ~scheme:base.scheme
      ~max_threads:base.device.max_threads_per_block
  in
  let unrolls =
    if knobs.try_unroll then
      Space.unroll_candidates ~rank ~scheme:base.scheme ~bound:knobs.unroll_bound
    else [ Array.make rank 1 ]
  in
  let phase1 =
    Trace.with_span "tune.phase1"
      ~attrs:
        [ ("kernel", Str base.kernel.kname);
          ("blocks", Int (List.length blocks)); ("unrolls", Int (List.length unrolls)) ]
      (fun () ->
        let candidates =
          List.concat_map
            (fun block -> List.map (fun unroll -> { base with block; unroll }) unrolls)
            blocks
        in
        consider_all ~phase:"phase1" ~label:"tune.phase1" None candidates)
  in
  match phase1 with
  | None -> None
  | Some p1_best ->
    (* ---- phase 2: refinements on the top candidates ---- *)
    Trace.with_span "tune.phase2"
      ~attrs:
        [ ("kernel", Str base.kernel.kname);
          ("phase1_best", Str (Plan.label p1_best.plan));
          ("phase1_tflops", Float p1_best.tflops) ]
    @@ fun () ->
    let top =
      (* Phase-1 already measured these (block, p1-best-unroll) points, so
         this re-ranking is all cache hits.  The sort must be stable:
         equal-TFLOPS blocks keep their canonical candidate order, which
         is what makes the promoted set independent of measurement
         completion order. *)
      let cands =
        List.map (fun block -> { base with block; unroll = p1_best.plan.unroll }) blocks
      in
      (* The re-rank passes the same gate and pays the same filtered
         budget: only the launchable blocks the model rates survive to a
         measurement.  The cut depends on nothing but the candidates and
         the model, so cold and warm runs promote the same set. *)
      let measured =
        gate ~pct:knobs.prerank_keep ~label:"tune.top.predict" cands
        |> List.filter_map (function Ok (v, _) -> Some v | Error _ -> None)
        |> Pool.map ~label:"tune.top" (fun v -> fst (Measure_cache.try_measure_outcome v))
      in
      List.stable_sort
        (fun (a : Analytic.measurement) b -> compare b.tflops a.tflops)
        measured
      |> List.filteri (fun i _ -> i < knobs.top_n)
      |> List.map (fun (m : Analytic.measurement) -> m.plan)
    in
    let final =
      consider_all ~phase:"phase2" ~label:"tune.phase2" (Some p1_best)
        (variants knobs top)
    in
    Option.map
      (fun best ->
        {
          best;
          explored = !explored;
          phase1_best = p1_best;
          history =
            List.sort (fun (_, a) (_, b) -> compare b a) !history;
        })
      final
