(* Profiler tests: roofline classification, code differencing, and the
   Section IV-A guideline decisions. *)

module C = Artemis_gpu.Counters
module Classify = Artemis_profile.Classify
module Differencing = Artemis_profile.Differencing
module Hints = Artemis_profile.Hints
module E = Artemis_exec
module O = Artemis_codegen.Options
module Lower = Artemis_codegen.Lower
module Suite = Artemis_bench.Suite

let case name f = Alcotest.test_case name `Quick f
let dev = Artemis_gpu.Device.p100

let measure ?(size = 64) bname opts =
  let b = Suite.at_size size (Suite.find bname) in
  let k = List.hd (Suite.kernels b) in
  E.Analytic.measure (Util.valid_lower k opts)

let classify (m : E.Analytic.measurement) =
  Classify.classify dev m.counters ~time_s:m.time_s

let tests =
  ( "profile",
    [
      case "synthetic dram-bound kernel classified" (fun () ->
          let c =
            { C.zero with total_flops = 1e9; useful_flops = 1e9; dram_bytes = 1e10;
              tex_bytes = 1e10 }
          in
          let prof = Classify.classify dev c ~time_s:(1e10 /. dev.dram_bw) in
          Alcotest.(check bool) "dram bound" true
            (match prof.verdict with
             | Classify.Bandwidth_bound levels -> List.mem Classify.Dram levels
             | _ -> false));
      case "synthetic compute-bound kernel classified" (fun () ->
          let c =
            { C.zero with total_flops = 1e12; useful_flops = 1e12; dram_bytes = 1e9;
              tex_bytes = 1e9; shm_bytes = 1e9 }
          in
          let prof = Classify.classify dev c ~time_s:(1e12 /. dev.peak_dp_flops) in
          Alcotest.(check bool) "compute bound" true
            (prof.verdict = Classify.Compute_bound));
      case "slow kernel with low OI everywhere is latency bound" (fun () ->
          let c =
            { C.zero with total_flops = 1e9; useful_flops = 1e9; dram_bytes = 1e8;
              tex_bytes = 1e8; shm_bytes = 1e8 }
          in
          (* 10x slower than any pipe explains *)
          let prof = Classify.classify dev c ~time_s:(1e9 /. dev.peak_dp_flops *. 10.0) in
          Alcotest.(check bool) "latency bound" true
            (prof.verdict = Classify.Latency_bound));
      case "7pt global version is bandwidth bound (Table III logic)" (fun () ->
          let m = measure "7pt-smoother" O.global_stream in
          let prof = classify m in
          match prof.verdict with
          | Classify.Bandwidth_bound _ -> ()
          | v -> Alcotest.failf "expected bandwidth bound, got %s"
                   (Classify.verdict_to_string v));
      case "differencing: reducing the binding level speeds it up" (fun () ->
          let m = measure "7pt-smoother" O.global_stream in
          let prof = classify m in
          match prof.verdict with
          | Classify.Bandwidth_bound (level :: _) ->
            (* an ambiguous verdict at the binding level is convicted *)
            let forced = { prof with Classify.verdict = Classify.Ambiguous level } in
            Alcotest.(check bool) "convicted" true
              ((Differencing.resolve m forced).verdict = Classify.Bandwidth_bound [ level ])
          | _ -> Alcotest.fail "expected a bandwidth-bound level");
      case "differencing: reducing a non-binding level does nothing" (fun () ->
          let m = measure "7pt-smoother" O.global_stream in
          (* shared memory is unused in the global version *)
          let forced = { (classify m) with Classify.verdict = Classify.Ambiguous Classify.Shm } in
          Alcotest.(check bool) "acquitted" true
            (match (Differencing.resolve m forced).verdict with
             | Classify.Bandwidth_bound _ | Classify.Ambiguous _ -> false
             | Classify.Compute_bound | Classify.Latency_bound -> true));
      case "differencing resolves ambiguity" (fun () ->
          let m = measure "7pt-smoother" O.global_stream in
          let prof = classify m in
          let forced = { prof with Classify.verdict = Classify.Ambiguous Classify.Dram } in
          let resolved = Differencing.resolve m forced in
          Alcotest.(check bool) "not ambiguous anymore" true
            (match resolved.verdict with Classify.Ambiguous _ -> false | _ -> true));
      case "guidelines: compute-bound disables shared and unroll" (fun () ->
          let m = measure "7pt-smoother" O.default in
          let prof =
            { (classify m) with Classify.verdict = Classify.Compute_bound }
          in
          let d = Hints.decide ~iterative:false m prof in
          Alcotest.(check bool) "no shared" false d.enable_shared;
          Alcotest.(check bool) "no unroll" false d.enable_unroll);
      case "guidelines: bandwidth-bound iterative explores fusion" (fun () ->
          let m = measure "7pt-smoother" O.default in
          let prof =
            { (classify m) with
              Classify.verdict = Classify.Bandwidth_bound [ Classify.Tex ] }
          in
          let d = Hints.decide ~iterative:true m prof in
          Alcotest.(check bool) "fusion" true d.explore_fusion);
      case "guidelines: register pressure disables unroll, explores fission"
        (fun () ->
          let m = measure ~size:32 "rhs4sgcurv" O.default in
          let prof = classify m in
          let d = Hints.decide ~iterative:false m prof in
          Alcotest.(check bool) "no unroll" false d.enable_unroll;
          Alcotest.(check bool) "fission" true d.explore_fission);
      case "guidelines: dram-bound spatial with shared prefers global" (fun () ->
          let m = measure "hypterm" O.default in
          let prof =
            { (classify m) with
              Classify.verdict = Classify.Bandwidth_bound [ Classify.Dram ] }
          in
          let d = Hints.decide ~iterative:false m prof in
          Alcotest.(check bool) "prefer global" true d.prefer_global);
      case "hints are textual and non-empty under pressure" (fun () ->
          let m = measure ~size:32 "rhs4sgcurv" O.default in
          let prof = classify m in
          let hints = Hints.hints ~iterative:false m prof in
          Alcotest.(check bool) "has hints" true (hints <> []));
    ] )
