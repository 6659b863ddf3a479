(* Layer replay: time each per-candidate public function the tuner calls
   (register stepping, launch lint, validation, static lint, pre-rank
   score, traffic context and counters, analytic measurement), median of
   [reps] repetitions per call.

   For every tuner item the set is Hierarchical's phase-1 candidate set
   rebuilt from its base plan: base x Space.block_candidates x
   Space.unroll_candidates.  Phase 2 is not replayed.  These sets also
   give the pre-rank model's fidelity: the Spearman correlation of its
   score with analytic time per useful FLOP, and whether the analytically
   best candidate survives the tuner's default pre-rank cut.  Workloads
   without a tuner replay the plans they ran, so every workload reports
   the same per-call costs. *)

module Plan = Artemis.Plan
module Json = Artemis.Json
module Space = Artemis_tune.Space

let reps = 3

(* Evenly spaced subsample: the full sets of the heaviest kernels would
   take minutes at three repetitions per call. *)
let max_candidates = 48

let timed_us f =
  let samples =
    List.init reps (fun _ ->
        let t0 = Pass.now_ns () in
        let r = f () in
        (Pass.seconds_since t0 *. 1e6, r))
  in
  (Stats.median (List.map fst samples), snd (List.hd samples))

let calls =
  [ "space.stepping_us"; "lint.launch_us"; "ir.validate_us"; "static.plan_us";
    "predict.rank_us"; "traffic.ctx_us"; "traffic.counters_us"; "analytic.measure_us" ]

let candidates (base : Plan.t) (knobs : Artemis.Hierarchical.knobs) =
  let rank = Plan.rank base in
  let blocks =
    Space.block_candidates ~rank ~scheme:base.scheme
      ~max_threads:base.device.max_threads_per_block
  in
  let unrolls =
    if knobs.try_unroll then
      Space.unroll_candidates ~rank ~scheme:base.scheme ~bound:knobs.unroll_bound
    else [ Array.make rank 1 ]
  in
  List.concat_map
    (fun block -> List.map (fun unroll -> { base with Plan.block; unroll }) unrolls)
    blocks

let subsample xs =
  let n = List.length xs in
  if n <= max_candidates then xs
  else
    List.filteri (fun i _ -> i * max_candidates / n <> (i + 1) * max_candidates / n) xs

type cand = {
  score : float;
  time_per_flop : float option;  (* analytic, for launchable candidates *)
}

(* Replay one set: per-call timings (name -> microsecond samples) and the
   candidates' scores and analytic costs. *)
let replay_set plans =
  let samples = Hashtbl.create 8 in
  let time name f =
    let us, r = timed_us f in
    Hashtbl.replace samples name
      (us :: Option.value ~default:[] (Hashtbl.find_opt samples name));
    r
  in
  let cands =
    List.map
      (fun (c : Plan.t) ->
        let regs = time "space.stepping_us" (fun () -> Space.min_nonspill_regs c) in
        let sp = { c with max_regs = Option.value ~default:255 regs } in
        let launch = time "lint.launch_us" (fun () -> Artemis.Lint.launch_errors sp) in
        let violations = time "ir.validate_us" (fun () -> Artemis.Validate.violations sp) in
        let score, _ = time "predict.rank_us" (fun () -> Artemis.Predict.rank sp) in
        let time_per_flop =
          if launch <> [] || violations <> [] then None
          else begin
            ignore (time "static.plan_us" (fun () -> Artemis.Lint.static_plan_errors sp));
            let ctx = time "traffic.ctx_us" (fun () -> Artemis_exec.Traffic.make_ctx sp) in
            ignore
              (time "traffic.counters_us" (fun () -> Artemis_exec.Traffic.total_counters ctx));
            match time "analytic.measure_us" (fun () -> Artemis.Analytic.try_measure sp) with
            | Some m when m.counters.useful_flops > 0.0 ->
              Some (m.time_s /. m.counters.useful_flops)
            | _ -> None
          end
        in
        { score; time_per_flop })
      (subsample plans)
  in
  (samples, cands)

(* Does the analytically best replayed candidate rank inside the tuner's
   default pre-rank keep share of the replayed candidates? *)
let winner_kept cands =
  match
    List.filter_map
      (fun (i, c) -> Option.map (fun t -> (t, i)) c.time_per_flop)
      (List.mapi (fun i c -> (i, c)) cands)
    |> List.sort compare
  with
  | [] -> None
  | (_, best) :: _ ->
    let n = List.length cands in
    let keep_n =
      max 1
        (int_of_float
           (ceil (float_of_int n *. Artemis.Hierarchical.default_prerank_keep /. 100.0)))
    in
    let order =
      List.mapi (fun i c -> (c.score, i)) cands |> List.sort compare |> List.map snd
    in
    Some (List.exists (fun i -> i = best) (List.filteri (fun r _ -> r < keep_n) order))

let spearman cands =
  let pairs =
    List.filter_map
      (fun c ->
        match c.time_per_flop with
        | Some t when Float.is_finite c.score -> Some (c.score, t)
        | _ -> None)
      cands
  in
  if List.length pairs < 3 then None
  else Some (Stats.spearman (List.map fst pairs) (List.map snd pairs))

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let share = function
  | [] -> 0.0
  | bs -> float_of_int (List.length (List.filter Fun.id bs)) /. float_of_int (List.length bs)

(* Replay the phase-1 set of every tuner item ([bases]), or else the
   [plans] the pass ran; returns the workload-level metrics and a
   per-set breakdown. *)
let run ~(bases : (string * (unit -> Plan.t * Artemis.Hierarchical.knobs)) list) ~plans =
  let sets =
    if bases <> [] then
      List.map
        (fun (item, base) ->
          let b, knobs = base () in
          (item, true, candidates b knobs))
        bases
    else [ ("plans run", false, plans) ]
  in
  let all_samples = Hashtbl.create 8 in
  let rows, spearmans, kept =
    List.fold_left
      (fun (rows, sps, kept) (item, alternatives, plans) ->
        let samples, cands = replay_set plans in
        Hashtbl.iter
          (fun k v ->
            Hashtbl.replace all_samples k
              (v @ Option.value ~default:[] (Hashtbl.find_opt all_samples k)))
          samples;
        let sp = if alternatives then spearman cands else None in
        let wk = if alternatives then winner_kept cands else None in
        let row =
          Json.Obj
            ([ ("item", Json.Str item); ("candidates", Json.Int (List.length plans));
               ("replayed", Json.Int (List.length cands));
               ("spearman", match sp with Some s -> Json.Float s | None -> Json.Null);
               ("winner_kept", match wk with Some b -> Json.Bool b | None -> Json.Null) ]
            @ List.map
                (fun c ->
                  ( c,
                    Json.Float
                      (mean (Option.value ~default:[] (Hashtbl.find_opt samples c))) ))
                calls)
        in
        ( row :: rows,
          Option.fold ~none:sps ~some:(fun s -> s :: sps) sp,
          Option.fold ~none:kept ~some:(fun b -> b :: kept) wk ))
      ([], [], []) sets
  in
  let metrics =
    List.map
      (fun c -> (c, mean (Option.value ~default:[] (Hashtbl.find_opt all_samples c))))
      calls
    @ [ ("predict.spearman", mean spearmans); ("predict.winner_kept", share kept) ]
  in
  let detail =
    Json.Obj
      [ ( "scope",
          Json.Str
            (Printf.sprintf
               "tuner items: phase-1 candidates only (base x block x unroll); other \
                workloads: the plans they ran; at most %d evenly spaced per set, median \
                of %d repetitions per call"
               max_candidates reps) );
        ("sets", Json.List (List.rev rows)) ]
  in
  (metrics, detail)
