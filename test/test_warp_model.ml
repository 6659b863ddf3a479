(* Warp-model tests: the measurement-free estimator must rank like the
   analytic measurement (Spearman), respond monotonically to traffic and
   occupancy, place the latency knee where the paper does, and keep the
   tuner's pre-ranked journal jobs-independent.  The device registry and
   the per-device measure-cache keys are pinned here too. *)

module Plan = Artemis_ir.Plan
module Validate = Artemis_ir.Validate
module Device = Artemis_gpu.Device
module Occupancy = Artemis_gpu.Occupancy
module Wm = Artemis_gpu.Warp_model
module Predict = Artemis_exec.Predict
module Analytic = Artemis_exec.Analytic
module Space = Artemis_tune.Space
module H = Artemis_tune.Hierarchical
module O = Artemis_codegen.Options
module Lower = Artemis_codegen.Lower
module Journal = Artemis_obs.Journal
module Suite = Artemis_bench.Suite

let case name f = Alcotest.test_case name `Quick f
let dev = Device.p100

let jacobi ?(n = 32) () =
  List.hd (Suite.kernels (Suite.at_size n (Suite.find "7pt-smoother")))

(* The candidate pool the ranking tests run over: the tuner's own block
   candidates applied to the Jacobi base plan, validity-filtered like
   phase 1 would. *)
let candidates () =
  let k = jacobi () in
  let base = Lower.lower dev k O.default in
  let blocks =
    Space.block_candidates ~rank:(Plan.rank base) ~scheme:base.scheme
      ~max_threads:dev.max_threads_per_block
  in
  List.filter Validate.is_valid
    (List.map (fun block -> { base with Plan.block }) blocks)

(* Spearman rank correlation without ties handling: both scores are
   floats off distinct plans, exact ties are broken by list position —
   good enough for a correlation floor. *)
let spearman xs ys =
  let rank vs =
    let indexed = List.mapi (fun i v -> (v, i)) vs in
    let sorted = List.sort compare indexed in
    let ranks = Array.make (List.length vs) 0.0 in
    List.iteri (fun r (_, i) -> ranks.(i) <- float_of_int r) sorted;
    ranks
  in
  let rx = rank xs and ry = rank ys in
  let n = Array.length rx in
  let d2 = ref 0.0 in
  Array.iteri (fun i r -> d2 := !d2 +. ((r -. ry.(i)) ** 2.0)) rx;
  let nf = float_of_int n in
  1.0 -. (6.0 *. !d2 /. (nf *. ((nf *. nf) -. 1.0)))

let occ_at (d : Device.t) frac =
  let active = int_of_float (frac *. float_of_int d.max_threads_per_sm) in
  {
    Occupancy.blocks_per_sm = max 1 (active / 256);
    active_threads = active;
    occupancy = frac;
    limiter = Occupancy.By_registers;
  }

let tests =
  ( "warp_model",
    [
      case "prediction rank-correlates with the analytic measurement"
        (fun () ->
          let plans = candidates () in
          let pairs =
            List.filter_map
              (fun p ->
                match Analytic.try_measure p with
                | None -> None
                | Some m ->
                  let score, _ = Predict.rank p in
                  if Float.is_finite score && m.Analytic.counters.useful_flops > 0.0
                  then Some (score, m.time_s /. m.Analytic.counters.useful_flops)
                  else None)
              plans
          in
          Alcotest.(check bool) "enough comparable candidates" true
            (List.length pairs >= 8);
          let rho = spearman (List.map fst pairs) (List.map snd pairs) in
          Alcotest.(check bool)
            (Printf.sprintf "Spearman rho %.2f >= 0.5" rho)
            true (rho >= 0.5));
      case "more DRAM traffic or more sectors never predicts faster"
        (fun () ->
          let k = jacobi () in
          let w = Predict.inputs_of_plan (Lower.lower dev k O.default) in
          let t0 = (Wm.predict dev w).time_s in
          List.iter
            (fun scale ->
              let t_dram =
                (Wm.predict dev { w with Wm.dram_bytes = w.dram_bytes *. scale })
                  .time_s
              in
              let t_sect =
                (Wm.predict dev { w with Wm.sectors = w.sectors *. scale }).time_s
              in
              Alcotest.(check bool)
                (Printf.sprintf "dram x%.0f no faster" scale)
                true (t_dram >= t0);
              Alcotest.(check bool)
                (Printf.sprintf "sectors x%.0f no faster" scale)
                true (t_sect >= t0))
            [ 2.0; 8.0; 64.0 ];
          (* Strictly more DRAM bytes must eventually show up in the
             prediction, not vanish under another ceiling. *)
          let t_heavy =
            (Wm.predict dev { w with Wm.dram_bytes = w.dram_bytes *. 64.0 }).time_s
          in
          Alcotest.(check bool) "64x dram strictly slower" true (t_heavy > t0));
      case "lower occupancy never predicts faster" (fun () ->
          let k = jacobi () in
          let w = Predict.inputs_of_plan (Lower.lower dev k O.default) in
          let time frac = (Wm.predict dev { w with Wm.occupancy = occ_at dev frac }).time_s in
          let fracs = [ 0.0625; 0.125; 0.25; 0.5; 1.0 ] in
          List.iter2
            (fun lo hi ->
              Alcotest.(check bool)
                (Printf.sprintf "occ %.2f <= occ %.2f time" hi lo)
                true (time hi <= time lo))
            (List.filteri (fun i _ -> i < List.length fracs - 1) fracs)
            (List.tl fracs));
      case "latency knee sits between 12.5% and 25% occupancy" (fun () ->
          (* The P100 entry's dp_latency_cycles is data, not a fudge: at
             the paper's spatial-kernel ILP band the knee lands exactly
             on the occupancies the bottleneck model uses. *)
          Alcotest.(check (float 1e-9)) "p100 ilp=2" 0.25
            (Device.latency_knee_occupancy Device.p100 ~ilp:2.0);
          Alcotest.(check (float 1e-9)) "p100 ilp=4" 0.125
            (Device.latency_knee_occupancy Device.p100 ~ilp:4.0);
          List.iter
            (fun (alias, d) ->
              let knee = Device.latency_knee_occupancy d ~ilp:2.0 in
              Alcotest.(check bool)
                (Printf.sprintf "%s knee %.3f in [0.125, 0.25]" alias knee)
                true
                (knee >= 0.125 && knee <= 0.25);
              (* issue_utilization saturates exactly at the knee... *)
              let u_at = Wm.issue_utilization d (occ_at d knee) ~ilp:2.0 in
              Alcotest.(check (float 1e-6))
                (alias ^ " saturates at knee") 1.0 u_at;
              (* ...and is strictly below 1 under it. *)
              let u_half =
                Wm.issue_utilization d (occ_at d (knee /. 2.0)) ~ilp:2.0
              in
              Alcotest.(check bool) (alias ^ " under knee unsaturated") true
                (u_half < 1.0 && u_half > 0.0))
            Device.registry);
      case "registry round-trips aliases and full names" (fun () ->
          List.iter
            (fun (alias, d) ->
              (match Device.find alias with
               | Some d' ->
                 Alcotest.(check string) (alias ^ " by alias") d.Device.name
                   d'.Device.name
               | None -> Alcotest.failf "alias %s not found" alias);
              match Device.find d.Device.name with
              | Some d' ->
                Alcotest.(check string) (alias ^ " by full name") d.Device.name
                  d'.Device.name
              | None -> Alcotest.failf "full name %s not found" d.Device.name)
            Device.registry;
          Alcotest.(check bool) "unknown alias is None" true
            (Device.find "tpu-v5" = None));
      case "measure-cache keys separate devices" (fun () ->
          (* Plans differing only in the target device must never share
             a cache entry: a V100 timing answered from a P100 key would
             poison cross-device tuning. *)
          let k = jacobi () in
          let p = Lower.lower dev k O.default in
          let variants =
            List.map (fun (_, d) -> { p with Plan.device = d }) Device.registry
          in
          let keys = List.map Artemis_tune.Measure_cache.key_of variants in
          Alcotest.(check int) "all keys distinct" (List.length keys)
            (List.length (List.sort_uniq compare keys)));
      case "pre-ranked tuning journals byte-identically at jobs=1 and jobs=4"
        (fun () ->
          let run jobs =
            Util.with_pool ~jobs (fun () ->
                Artemis.Measure_cache.clear ();
                Journal.start ();
                ignore
                  (Artemis.optimize_kernel ~prerank_keep:H.default_prerank_keep
                     (jacobi ()));
                let out = Journal.to_jsonl () in
                Journal.stop ();
                out)
          in
          let serial = run 1 in
          let fanned = run 4 in
          let preranks jsonl =
            List.length
              (List.filter
                 (fun ev ->
                   match ev with
                   | Artemis_obs.Json.Obj fields ->
                     List.assoc_opt "event" fields
                     = Some (Artemis_obs.Json.Str "tuner.prerank")
                   | _ -> false)
                 (Journal.parse_jsonl jsonl))
          in
          Alcotest.(check bool) "prerank events present" true (preranks serial > 0);
          Alcotest.(check string) "journal identical" serial fanned);
    ] )
