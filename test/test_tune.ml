(* Autotuner tests: search-space pruning rules, hierarchical tuning
   behaviour, the fusion dynamic program (checked against brute force),
   and the OpenTuner-style baseline cost comparison. *)

module Plan = Artemis_ir.Plan
module Space = Artemis_tune.Space
module H = Artemis_tune.Hierarchical
module Deep = Artemis_tune.Deep
module Ot = Artemis_tune.Opentuner_sim
module E = Artemis_exec
module O = Artemis_codegen.Options
module Lower = Artemis_codegen.Lower
module Suite = Artemis_bench.Suite

let case name f = Alcotest.test_case name `Quick f
let dev = Artemis_gpu.Device.p100

let jacobi ?(n = 64) () =
  List.hd (Suite.kernels (Suite.at_size n (Suite.find "7pt-smoother")))

let is_pow2 n = n > 0 && n land (n - 1) = 0

(* Plans through the validity gate so far, launchable or not. *)
let validated () =
  let module M = Artemis_obs.Metrics in
  M.counter_value (M.counter "lower.plans_validated" ~labels:[ ("ok", "true") ])
  +. M.counter_value (M.counter "lower.plans_validated" ~labels:[ ("ok", "false") ])

let tests =
  ( "tune",
    [
      case "block candidates are powers of two in [4,256]" (fun () ->
          let cands =
            Space.block_candidates ~rank:3 ~scheme:(Plan.Serial_stream 0)
              ~max_threads:1024
          in
          Alcotest.(check bool) "non-empty" true (cands <> []);
          List.iter
            (fun b ->
              Alcotest.(check bool) "stream dim = 1" true (b.(0) = 1);
              Array.iteri
                (fun d e ->
                  if d > 0 then
                    Alcotest.(check bool) "pow2 in range" true
                      (is_pow2 e && e >= 4 && e <= 256))
                b;
              Alcotest.(check bool) "thread cap" true
                (Array.fold_left ( * ) 1 b <= 1024))
            cands);
      case "unroll candidates bounded and ordered by product" (fun () ->
          let cands =
            Space.unroll_candidates ~rank:3 ~scheme:(Plan.Serial_stream 0) ~bound:8
          in
          List.iter
            (fun u -> Array.iter (fun f -> Alcotest.(check bool) "<=8" true (f <= 8)) u)
            cands;
          let products = List.map (Array.fold_left ( * ) 1) cands in
          let sorted = List.sort compare products in
          Alcotest.(check (list int)) "monotone order" sorted products);
      case "register stepping picks the smallest non-spill budget" (fun () ->
          let k = jacobi () in
          let p = Lower.lower dev k O.default in
          match Space.min_nonspill_regs p with
          | Some r -> Alcotest.(check int) "jacobi fits in 64" 64 r
          | None -> Alcotest.fail "expected a step");
      case "no non-spill step for rhs4sgcurv maxfuse" (fun () ->
          let k = List.hd (Suite.kernels (Suite.at_size 32 (Suite.find "rhs4sgcurv"))) in
          let p = Lower.lower dev k O.default in
          Alcotest.(check bool) "spills at every step" true
            (Space.min_nonspill_regs p = None));
      case "hierarchical tuning improves on the baseline" (fun () ->
          let k = jacobi () in
          let base = Lower.lower dev k O.default in
          match H.tune base with
          | Some r ->
            let baseline = E.Analytic.measure (Util.valid base) in
            Alcotest.(check bool) "no worse" true (r.best.tflops >= baseline.tflops);
            Alcotest.(check bool) "explored plenty" true (r.explored > 20)
          | None -> Alcotest.fail "tuning found nothing");
      case "phase 2 refinements cannot lose to phase 1" (fun () ->
          let k = jacobi () in
          let base = Lower.lower dev k O.default in
          match H.tune base with
          | Some r ->
            Alcotest.(check bool) "best >= phase1" true
              (r.best.tflops >= r.phase1_best.tflops)
          | None -> Alcotest.fail "tuning found nothing");
      case "disabling unroll shrinks the space" (fun () ->
          let k = jacobi () in
          let base = Lower.lower dev k O.default in
          let full = H.tune base in
          let pruned =
            H.tune ~knobs:{ H.default_knobs with H.try_unroll = false } base
          in
          match (full, pruned) with
          | Some f, Some p ->
            Alcotest.(check bool) "fewer configs" true (p.explored < f.explored)
          | _ -> Alcotest.fail "tuning found nothing");
      case "hierarchical explores far fewer configs than exhaustive" (fun () ->
          let k = jacobi () in
          let base = Lower.lower dev k O.default in
          let h = H.tune base in
          let ot = Ot.tune ~budget:500 base in
          match h with
          | Some h ->
            Alcotest.(check bool) "space is larger" true (ot.space_size > h.explored * 3)
          | None -> Alcotest.fail "tuning found nothing");
      case "exhaustive never finds a much better plan than hierarchical"
        (fun () ->
          (* quality check on a reduced exhaustive space *)
          let k = jacobi ~n:32 () in
          let base = Lower.lower dev k O.default in
          match (H.tune base, (Ot.tune ~budget:2000 base).best) with
          | Some h, Some o ->
            Alcotest.(check bool) "within 25%" true (h.best.tflops >= 0.75 *. o.tflops)
          | _ -> Alcotest.fail "tuning found nothing");
      case "fusion DP equals brute force" (fun () ->
          (* synthetic version table exercising non-trivial compositions *)
          let mk tt time =
            {
              Deep.time_tile = tt;
              degree = 1;
              record =
                (let k = jacobi ~n:16 () in
                 let base = Lower.lower dev k O.default in
                 let m = E.Analytic.measure (Util.valid base) in
                 let m = { m with E.Analytic.time_s = time } in
                 { H.best = m; explored = 0; phase1_best = m; history = [] });
              profile =
                Artemis_profile.Classify.classify dev Artemis_gpu.Counters.zero
                  ~time_s:1.0;
              time_per_sweep = time /. float_of_int tt;
            }
          in
          let r =
            { Deep.versions = [ mk 1 1.0; mk 2 1.7; mk 3 2.1; mk 4 2.9 ];
              cusp = 3; tipping_point = 4 }
          in
          List.iter
            (fun t ->
              let _, dp_cost = Deep.optimal_schedule r ~t in
              let _, bf_cost = Deep.brute_force_schedule r ~t in
              Alcotest.(check (float 1e-9)) (Printf.sprintf "T=%d" t) bf_cost dp_cost)
            [ 1; 2; 3; 5; 7; 12; 13; 25 ]);
      case "fusion schedule covers T exactly" (fun () ->
          let k = jacobi () in
          let plan_of fused = Lower.lower dev fused O.default in
          let r = Deep.explore ~max_tile:3 ~plan_of k ~out:"out" ~inp:"in" in
          List.iter
            (fun t ->
              let sched, _ = Deep.optimal_schedule r ~t in
              Alcotest.(check int) (Printf.sprintf "sum=%d" t) t
                (List.fold_left ( + ) 0 sched))
            [ 1; 4; 9; 13 ]);
      case "deep exploration stops when no longer bandwidth bound" (fun () ->
          let k = jacobi () in
          let plan_of fused = Lower.lower dev fused O.default in
          let r = Deep.explore ~max_tile:6 ~plan_of k ~out:"out" ~inp:"in" in
          Alcotest.(check bool) "at most 6 versions" true
            (List.length r.versions <= 6);
          Alcotest.(check bool) "tipping <= 6 (paper: under 4 for all)" true
            (r.tipping_point <= 6));
      case "tipping point is always a measured time tile" (fun () ->
          (* Regression: a single-version exploration used to report
             last.time_tile + 1 — a tile that was never measured. *)
          let k = jacobi () in
          let plan_of fused = Lower.lower dev fused O.default in
          let r1 = Deep.explore ~max_tile:1 ~plan_of k ~out:"out" ~inp:"in" in
          Alcotest.(check int) "single version" 1 (List.length r1.versions);
          Alcotest.(check int) "clamped to the explored range" 1 r1.tipping_point;
          let r6 = Deep.explore ~max_tile:6 ~plan_of k ~out:"out" ~inp:"in" in
          Alcotest.(check bool) "tipping was actually explored" true
            (List.exists (fun v -> v.Deep.time_tile = r6.tipping_point) r6.versions));
      case "generic search reports attempted and measured separately" (fun () ->
          (* Regression: a single `explored` count only counted successful
             measurements while the budget capped attempts. *)
          let k = jacobi () in
          let base = Lower.lower dev k O.default in
          let r = Ot.tune ~budget:120 base in
          Alcotest.(check int) "budget caps attempts"
            (min 120 r.space_size) r.attempted;
          Alcotest.(check bool) "measured <= attempted" true
            (r.measured <= r.attempted);
          Alcotest.(check bool) "something measured" true (r.measured > 0));
      case "measure-cache keys cover the temporal fields" (fun () ->
          (* Regression: plans differing only in the temporal dimension
             must never share a cache entry. *)
          let k = jacobi ~n:32 () in
          let p = Lower.lower dev k O.default in
          let tb degree halo tbuf =
            { p with
              Plan.temporal = { Plan.degree; halo; tbuf; pair = Some ("out", "in") }
            }
          in
          let variants =
            [ p;
              tb 1 Plan.Halo_recompute Plan.Shared_double;
              tb 2 Plan.Halo_recompute Plan.Shared_double;
              tb 4 Plan.Halo_recompute Plan.Shared_double;
              tb 2 Plan.Halo_exchange Plan.Shared_double;
              tb 2 Plan.Halo_recompute Plan.Register_cycle ]
          in
          let keys = List.map Artemis_tune.Measure_cache.key_of variants in
          Alcotest.(check int) "all keys distinct" (List.length keys)
            (List.length (List.sort_uniq compare keys)));
      case "deep exploration picks the degree jointly with the width" (fun () ->
          let k = jacobi () in
          let plan_of fused = Lower.lower dev fused O.default in
          let r =
            Deep.explore ~max_tile:2 ~max_degree:4 ~plan_of k ~out:"out" ~inp:"in"
          in
          Alcotest.(check bool) "some version is temporally blocked" true
            (List.exists (fun (v : Deep.version) -> v.degree > 1) r.versions);
          (* The opt(T) DP composes over covered steps and still covers
             any T exactly, including odd counts no blocked version can
             reach on its own. *)
          List.iter
            (fun t ->
              let sched, _ = Deep.optimal_schedule r ~t in
              Alcotest.(check int) (Printf.sprintf "sum=%d" t) t
                (List.fold_left ( + ) 0 sched))
            [ 1; 3; 8; 13 ]);
      case "optimal_schedule rejects negative T" (fun () ->
          let k = jacobi ~n:16 () in
          let plan_of fused = Lower.lower dev fused O.default in
          let r = Deep.explore ~max_tile:1 ~plan_of k ~out:"out" ~inp:"in" in
          Alcotest.check_raises "invalid"
            (Invalid_argument "optimal_schedule: negative iteration count")
            (fun () -> ignore (Deep.optimal_schedule r ~t:(-1))));
      case "phase 2 retimes each kernel value once" (fun () ->
          (* Two promoted candidates over one kernel value: every retimed
             variant of both must carry one physical retimed kernel, so
             the per-kernel caches see one value. *)
          let base, retimed =
            List.find_map
              (fun k ->
                let base = Lower.lower dev k O.default in
                let halved = Array.map (fun b -> max 1 (b / 2)) base.block in
                let cands = [ base; { base with block = halved } ] in
                let variants = H.variants H.default_knobs cands in
                match List.filter (fun (p : Plan.t) -> p.retime) variants with
                | [] -> None
                | retimed -> Some (base, retimed))
              (List.concat_map Suite.kernels (List.map (Suite.at_size 32) Suite.all))
            |> Option.get
          in
          Alcotest.(check bool) "several retimed variants" true (List.length retimed > 2);
          let k' = (List.hd retimed).kernel in
          Alcotest.(check bool) "retimed kernel is not the base's" true (k' != base.kernel);
          List.iter
            (fun (p : Plan.t) ->
              if p.kernel != k' then
                Alcotest.failf "%s: a second retimed kernel" (Plan.label p))
            retimed);
      case "a search validates each candidate it builds once" (fun () ->
          let module J = Artemis_obs.Journal in
          let base = Lower.lower dev (jacobi ()) O.default in
          let before = validated () in
          J.start ();
          let r = Util.with_pool ~jobs:1 (fun () -> H.tune base) in
          J.stop ();
          let after = validated () in
          Alcotest.(check bool) "tuned" true (r <> None);
          (* Phases 1 and 2 journal one [tuner.candidate] per candidate,
             launchable or not; the re-rank between them journals none
             and builds one candidate per block shape. *)
          let journaled =
            List.length
              (List.filter
                 (fun e ->
                   Artemis_obs.Json.member "event" e = Some (Artemis_obs.Json.Str "tuner.candidate"))
                 (J.events ()))
          in
          let blocks =
            Space.block_candidates ~rank:(Plan.rank base) ~scheme:base.scheme
              ~max_threads:dev.max_threads_per_block
          in
          let lint_pruned =
            List.exists
              (fun e ->
                Artemis_obs.Json.member "decision" e = Some (Artemis_obs.Json.Str "lint-pruned"))
              (J.events ())
          in
          Alcotest.(check bool) "some candidate cannot launch" true lint_pruned;
          Alcotest.(check (float 0.0)) "one validation per candidate"
            (float_of_int (journaled + List.length blocks))
            (after -. before));
      case "a 12-step run validates its plan once" (fun () ->
          let b = Suite.at_size 16 (Suite.find "7pt-smoother") in
          let p = Util.valid_lower (List.hd (Suite.kernels b)) O.default in
          let steps =
            [ E.Runner.Loop (12, [ E.Runner.Run_plan p; E.Runner.Swap ("out", "in") ]) ]
          in
          let store = E.Reference.store_of_program b.prog in
          let before = validated () in
          E.Runner.run_schedule steps store ~scalars:(E.Reference.scalars_of_program b.prog);
          Alcotest.(check (float 0.0)) "one validation" 1.0 (validated () -. before));
    ] )
