(* Deep tuning for iterative stencils with arbitrary time-iteration counts
   (paper, Section VI-A).

   ARTEMIS generates fused versions (x * 1) of increasing time-tile size,
   autotunes each, and profiles the best configuration: exploration stops
   as soon as a version is no longer bandwidth-bound at DRAM, texture, or
   shared memory (fusion can only help bandwidth-bound kernels).  The
   recorded per-version times then feed the dynamic program

     opt(T) = 0                                   if T = 0
            = min over 1<=x<=min(k,T) of f(x) + opt(T - x)

   which yields a near-optimal fusion schedule for any iteration count. *)

module I = Artemis_dsl.Instantiate
module Plan = Artemis_ir.Plan
module Analytic = Artemis_exec.Analytic
module Classify = Artemis_profile.Classify
module Fusion = Artemis_fuse.Fusion
module Trace = Artemis_obs.Trace
module Metrics = Artemis_obs.Metrics
module Journal = Artemis_obs.Journal
module Json = Artemis_obs.Json
module Pool = Artemis_par.Pool

let m_versions = Metrics.counter "deep.versions_explored"

type version = {
  time_tile : int;
  degree : int;
      (** temporal-blocking degree the tuner chose for this tile; the
          version covers [time_tile * degree] time steps per launch *)
  record : Hierarchical.record;
  profile : Classify.profile;
  time_per_sweep : float;  (** launch time / (time_tile * degree) *)
}

(** Time steps one launch of a version advances. *)
let steps_covered v = v.time_tile * v.degree

type result = {
  versions : version list;  (** (x * 1) for x = 1 .. k *)
  cusp : int;  (** time tile with the best per-sweep throughput *)
  tipping_point : int;  (** first x whose per-sweep TFLOPS drop vs x-1 (or k) *)
}

let profile_of (m : Analytic.measurement) =
  Classify.classify m.plan.device m.counters ~time_s:m.time_s

let still_bandwidth_bound prof =
  match prof.Classify.verdict with
  | Classify.Bandwidth_bound _ | Classify.Ambiguous _ -> true
  | Classify.Compute_bound | Classify.Latency_bound -> false

(** Generate and tune fused versions of the ping-pong kernel [k] (writing
    [out] from [inp]) until fusion stops paying or [max_tile] is reached.
    [plan_of] builds the base plan (scheme/placement) for a fused kernel. *)
let explore ?(max_tile = 5) ?(max_degree = 1)
    ?(prerank_keep = Hierarchical.default_prerank_keep) ~plan_of (k : I.kernel) ~out
    ~inp =
  (* Generate and tune one fused version — the heavy, pure part of each
     step, safe to run speculatively on a pool worker.  The tuner's own
     journal events are captured alongside the outcome so [decide] can
     replay them in tile order on the main domain: a speculative run
     journals byte-identically to a serial one, and tiles past the
     stopping point leave no events at all. *)
  let tune_tile x =
    Journal.capture (fun () ->
        let fused = Fusion.time_fuse k ~out ~inp ~f:x in
        let base : Plan.t = plan_of fused in
        (* The base names its ping-pong pair so phase 2 of the tuner can
           pick the temporal-blocking degree b jointly with this fusion
           width: a version then covers x*b steps per launch, and the DP
           below composes over steps covered rather than tiles. *)
        let base =
          { base with
            Plan.time_tile = x;
            temporal = { Plan.no_temporal with Plan.pair = Some (out, inp) };
          }
        in
        let knobs =
          { Hierarchical.default_knobs with Hierarchical.max_degree; prerank_keep }
        in
        match Hierarchical.tune ~knobs base with
        | None -> None
        | Some record -> Some (record, profile_of record.best))
  in
  (* Apply the Section VI-A stopping rule to a tuned version and record
     the decision trail.  Called on the main domain in tile order for
     exactly the tiles the serial loop would reach, so serial and
     speculative exploration leave identical results behind. *)
  let decide x (outcome, entries) =
    Journal.replay entries;
    match outcome with
    | None ->
      Trace.instant "deep.decision"
        ~attrs:[ ("time_tile", Int x); ("decision", Str "stop");
                 ("reason", Str "no-valid-configuration") ];
      if Journal.enabled () then
        Journal.append "deep.version"
          [ ("time_tile", Json.Int x); ("decision", Json.Str "stop");
            ("reason", Json.Str "no-valid-configuration") ];
      None
    | Some ((record : Hierarchical.record), prof) ->
      Metrics.incr m_versions;
      let degree = record.best.plan.Plan.temporal.Plan.degree in
      let steps = x * degree in
      let continue_ = still_bandwidth_bound prof in
      (* The Section VI-A stopping rule is itself a profiling
         decision — record it with its evidence. *)
      Trace.instant "deep.decision"
        ~attrs:
          [ ("time_tile", Int x);
            ("tflops", Float record.best.tflops);
            ("verdict", Str (Classify.verdict_to_string prof.verdict));
            ("decision", Str (if continue_ then "continue" else "stop"));
            ("reason",
             Str (if continue_ then "still-bandwidth-bound"
                  else "no-longer-bandwidth-bound")) ];
      if Journal.enabled () then
        Journal.append "deep.version"
          [ ("time_tile", Json.Int x);
            ("degree", Json.Int degree);
            ("steps_covered", Json.Int steps);
            ("plan", Json.Str (Plan.label record.best.plan));
            ("tflops", Json.Float record.best.tflops);
            ("time_s", Json.Float record.best.time_s);
            ( "time_per_sweep",
              Json.Float (record.best.time_s /. float_of_int steps) );
            ("explored", Json.Int record.explored);
            ("verdict", Json.Str (Classify.verdict_to_string prof.verdict));
            ("decision", Json.Str (if continue_ then "continue" else "stop"));
            ( "reason",
              Json.Str
                (if continue_ then "still-bandwidth-bound"
                 else "no-longer-bandwidth-bound") ) ];
      Some
        ( {
            time_tile = x;
            degree;
            record;
            profile = prof;
            time_per_sweep = record.best.time_s /. float_of_int steps;
          },
          continue_ )
  in
  let serial () =
    let rec go x acc =
      if x > max_tile then List.rev acc
      else begin
        let step =
          Trace.with_span "deep.version" ~attrs:[ ("time_tile", Int x) ] (fun () ->
              decide x (tune_tile x))
        in
        match step with
        | None -> List.rev acc
        | Some (v, true) -> go (x + 1) (v :: acc)
        | Some (v, false) -> List.rev (v :: acc)
      end
    in
    go 1 []
  in
  (* With a pool available, tune every tile size speculatively — versions
     past the stopping point are wasted work traded for wall-clock — then
     replay the serial stopping rule over the results in tile order.
     Decision instants, metrics, and even a worker's exception surface
     only when the serial loop would have reached that tile. *)
  let speculative () =
    let outcomes =
      Pool.map ~label:"deep.version"
        (fun x ->
          match
            Trace.with_span "deep.version" ~attrs:[ ("time_tile", Int x) ] (fun () ->
                tune_tile x)
          with
          | o -> Ok o
          | exception e -> Error (e, Printexc.get_raw_backtrace ()))
        (List.init max_tile (fun i -> i + 1))
    in
    let rec replay x acc = function
      | [] -> List.rev acc
      | outcome :: rest -> (
        match outcome with
        | Error (e, bt) -> Printexc.raise_with_backtrace e bt
        | Ok o -> (
          match decide x o with
          | None -> List.rev acc
          | Some (v, true) -> replay (x + 1) (v :: acc) rest
          | Some (v, false) -> List.rev (v :: acc)))
    in
    replay 1 [] outcomes
  in
  let versions =
    Trace.with_span "deep.explore" (fun () ->
        if Pool.parallelism () <= 1 then serial () else speculative ())
  in
  let cusp =
    match
      List.sort (fun a b -> compare a.time_per_sweep b.time_per_sweep) versions
    with
    | best :: _ -> best.time_tile
    | [] -> 1
  in
  let tipping_point =
    (* First explored x whose per-sweep time regresses vs its
       predecessor.  When no explored version regresses, the documented
       "(or k)" fallback is the largest tile actually measured — never a
       tile outside the explored range. *)
    let rec find = function
      | a :: b :: rest ->
        if b.time_per_sweep > a.time_per_sweep then b.time_tile else find (b :: rest)
      | [ last ] -> last.time_tile
      | [] -> 1
    in
    find versions
  in
  if Journal.enabled () then
    Journal.append "deep.result"
      [ ("versions", Json.Int (List.length versions)); ("cusp", Json.Int cusp);
        ("tipping_point", Json.Int tipping_point) ];
  { versions; cusp; tipping_point }

(* Launch-time table keyed on steps covered (time_tile * degree).  Two
   versions can cover the same step count — e.g. (x=4, b=1) and
   (x=2, b=2) — so the cheaper launch wins the key. *)
let segment_times (r : result) =
  let add acc steps time =
    match List.assoc_opt steps acc with
    | Some t0 when t0 <= time -> acc
    | _ -> (steps, time) :: List.remove_assoc steps acc
  in
  List.fold_left
    (fun acc v ->
      let acc = add acc (steps_covered v) v.record.best.time_s in
      (* A blocked winner still leaves its unblocked degree-1 launch (the
         phase-1 best) behind, so every iteration count stays reachable —
         e.g. t=7 with only a (x=1, b=4) winner would otherwise have no
         decomposition. *)
      if v.degree > 1 then add acc v.time_tile v.record.phase1_best.time_s
      else acc)
    [] r.versions

(** Optimal fusion schedule for [t] iterations given per-version times:
    the Section VI-A dynamic program, run over steps covered per launch
    (fusion width x temporal degree).  Returns the segment step counts
    (summing to [t]) and the predicted total time. *)
let optimal_schedule (r : result) ~t =
  if t < 0 then invalid_arg "optimal_schedule: negative iteration count";
  Trace.with_span "deep.schedule" ~attrs:[ ("iterations", Int t) ] @@ fun () ->
  let times = segment_times r in
  let k = List.fold_left (fun acc (x, _) -> max acc x) 0 times in
  let opt = Array.make (t + 1) infinity in
  let choice = Array.make (t + 1) 0 in
  opt.(0) <- 0.0;
  for tt = 1 to t do
    for x = 1 to min k tt do
      match List.assoc_opt x times with
      | Some fx ->
        if fx +. opt.(tt - x) < opt.(tt) then begin
          opt.(tt) <- fx +. opt.(tt - x);
          choice.(tt) <- x
        end
      | None -> ()
    done
  done;
  let rec collect tt acc =
    if tt = 0 then acc else collect (tt - choice.(tt)) (choice.(tt) :: acc)
  in
  if t > 0 && opt.(t) = infinity then invalid_arg "optimal_schedule: no versions"
  else begin
    let schedule = collect t [] in
    if Journal.enabled () then
      Journal.append "deep.schedule"
        [ ("iterations", Json.Int t);
          ("schedule", Json.List (List.map (fun x -> Json.Int x) schedule));
          ("predicted_time_s", Json.Float opt.(t)) ];
    (schedule, opt.(t))
  end

(** Brute-force check of the DP (used by property tests): enumerate all
    compositions of [t] into parts with known times. *)
let brute_force_schedule (r : result) ~t =
  let times = segment_times r in
  let best = ref (([], infinity) : int list * float) in
  let rec go remaining acc cost =
    if cost >= snd !best then ()
    else if remaining = 0 then best := (List.rev acc, cost)
    else
      List.iter
        (fun (x, fx) -> if x <= remaining then go (remaining - x) (x :: acc) (cost +. fx))
        times
  in
  go t [] 0.0;
  !best
