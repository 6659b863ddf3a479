(* Pre-ranking tests: the one-block sketch priced by [Timing.evaluate]
   must rank like the analytic measurement (Spearman) over the tuner's
   own candidates, the time function must respond monotonically to
   traffic and occupancy and place the latency knee where the paper
   does, and the tuner's pre-ranked journal must stay jobs-independent.
   The device registry and the per-device measure-cache keys are pinned
   here too. *)

module Plan = Artemis_ir.Plan
module Device = Artemis_gpu.Device
module Occupancy = Artemis_gpu.Occupancy
module Timing = Artemis_gpu.Timing
module Predict = Artemis_exec.Predict
module Analytic = Artemis_exec.Analytic
module Traffic = Artemis_exec.Traffic
module H = Artemis_tune.Hierarchical
module O = Artemis_codegen.Options
module Lower = Artemis_codegen.Lower
module Journal = Artemis_obs.Journal
module Suite = Artemis_bench.Suite

let case name f = Alcotest.test_case name `Quick f
let dev = Device.p100

let jacobi ?(n = 32) () =
  List.hd (Suite.kernels (Suite.at_size n (Suite.find "7pt-smoother")))

(* The Jacobi base plan's exact workload, as measurement prices it. *)
let jacobi_workload () =
  let ctx = Traffic.make_ctx (Lower.lower dev (jacobi ()) O.default) in
  Analytic.workload ctx (Traffic.total_counters ctx)

let time w = (Timing.evaluate dev w).t_total

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
  ( "predict",
    [
      case "prediction rank-correlates with the analytic measurement"
        (fun () ->
          (* The pricing pin's priced candidates, register-stepped as
             the tuner scores and measures them: every suite kernel's
             phase-1 sample and phase-2 variants, temporal degrees
             included. *)
          let pairs =
            List.filter_map
              (fun (p, _) ->
                let sp = Test_pricing.stepped p in
                match Analytic.try_measure sp with
                | None -> None
                | Some m ->
                  let score, _ = Predict.rank sp in
                  let useful = m.counters.useful_flops in
                  if Float.is_finite score && useful > 0.0 then
                    Some (sp.temporal.degree > 1, (score, m.time_s /. useful))
                  else None)
              (List.filter snd (Test_pricing.candidates ()))
          in
          let rho what pairs =
            let rho = spearman (List.map fst pairs) (List.map snd pairs) in
            Printf.printf "%s: %d plans, Spearman rho %.4f\n" what (List.length pairs) rho;
            Alcotest.(check bool) (what ^ ": enough comparable candidates") true
              (List.length pairs >= 1000);
            Alcotest.(check bool)
              (Printf.sprintf "%s: Spearman rho %.4f >= 0.99" what rho)
              true (rho >= 0.99)
          in
          rho "all" (List.map snd pairs);
          rho "temporal"
            (List.filter_map (fun (temporal, s) -> if temporal then Some s else None) pairs));
      case "more DRAM or L2 traffic never predicts faster" (fun () ->
          let w = jacobi_workload () in
          let t0 = time w in
          let scaled f = time { w with counters = f w.Timing.counters } in
          List.iter
            (fun scale ->
              let t_dram =
                scaled (fun c -> { c with dram_bytes = c.dram_bytes *. scale })
              in
              let t_tex = scaled (fun c -> { c with tex_bytes = c.tex_bytes *. scale }) in
              Alcotest.(check bool)
                (Printf.sprintf "dram x%.0f no faster" scale)
                true (t_dram >= t0);
              Alcotest.(check bool)
                (Printf.sprintf "L2 x%.0f no faster" scale)
                true (t_tex >= t0))
            [ 2.0; 8.0; 64.0 ];
          (* Strictly more DRAM bytes must eventually show up in the
             prediction, not vanish under another ceiling. *)
          let t_heavy = scaled (fun c -> { c with dram_bytes = c.dram_bytes *. 64.0 }) in
          Alcotest.(check bool) "64x dram strictly slower" true (t_heavy > t0));
      case "lower occupancy never predicts faster" (fun () ->
          let w = jacobi_workload () in
          let time frac = time { w with occupancy = occ_at dev frac } in
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
              (* latency_utilization saturates exactly at the knee... *)
              let u_at = Timing.latency_utilization d (occ_at d knee) ~ilp:2.0 in
              Alcotest.(check (float 1e-6))
                (alias ^ " saturates at knee") 1.0 u_at;
              (* ...and is strictly below 1 under it. *)
              let u_half =
                Timing.latency_utilization d (occ_at d (knee /. 2.0)) ~ilp:2.0
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
