(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section VIII) on the simulated P100, plus the tuning-cost
   comparison of Section V and the deterministic tuner/executor
   indicators gated by [artemisc bench-diff].  Nothing here reads a
   clock: host wall time is measured by perf/ (docs/PERF.md).

     dune exec bench/main.exe             # everything
     dune exec bench/main.exe -- fig5     # one experiment

   Paper reference numbers are printed alongside so the shape comparison
   (who wins, by what factor, where crossovers fall) is immediate;
   EXPERIMENTS.md records the same pairs. *)

module Suite = Artemis.Suite
module Plan = Artemis.Plan
module O = Artemis.Options
module C = Artemis.Counters
module An = Artemis.Analysis
module I = Artemis.Instantiate

let dev = Artemis.Device.p100

let header title = Printf.printf "\n=== %s ===\n%!" title

(* Run [f] at [jobs] pool workers, restoring the previous count. *)
let with_jobs jobs f =
  let saved = Artemis.Pool.jobs () in
  Artemis.Pool.set_jobs jobs;
  Fun.protect ~finally:(fun () -> Artemis.Pool.set_jobs saved) f

(* Shared provenance block stamped into every BENCH_*.json so bench-diff
   can refuse to compare results produced under different machine models
   (docs/OBSERVABILITY.md). *)
let bench_meta () =
  let module J = Artemis.Json in
  let machine_model =
    J.Obj
      [ ("device", J.Str dev.Artemis.Device.name);
        ("alpha_tflops", J.Float (dev.Artemis.Device.peak_dp_flops /. 1e12));
        ("knee_dram", J.Float (Artemis.Device.knee_dram dev));
        ("knee_tex", J.Float (Artemis.Device.knee_tex dev));
        ("knee_shm", J.Float (Artemis.Device.knee_shm dev));
        ("halo_miss", J.Float dev.Artemis.Device.halo_miss);
        ("l2_hit_floor", J.Float dev.Artemis.Device.l2_hit_floor) ]
  in
  Artemis.Bench_diff.meta ~jobs:(Artemis.Pool.jobs ()) ~machine_model

(* ------------------------------------------------------------------ *)
(* Machine-readable results (BENCH_results.json)                        *)
(* ------------------------------------------------------------------ *)

(* Per-benchmark headline numbers, accumulated as metrics gauges during
   fig5 and dumped — together with the full metrics snapshot — so the
   perf-trajectory BENCH files can accumulate across runs. *)
let bench_results : (string * float * float * string) list ref = ref []

let record_bench name ~time_s ~tflops ~bottleneck =
  bench_results := (name, time_s, tflops, bottleneck) :: !bench_results;
  let module M = Artemis.Metrics in
  M.set (M.gauge "bench.tflops" ~labels:[ ("bench", name) ]) tflops;
  M.set (M.gauge "bench.time_s" ~labels:[ ("bench", name) ]) time_s;
  M.incr (M.counter "bench.runs" ~labels:[ ("bench", name); ("bottleneck", bottleneck) ])

let write_json file doc =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (Artemis.Json.to_string ~indent:true doc));
  Printf.printf "wrote %s\n%!" file

let write_bench_results () =
  match List.rev !bench_results with
  | [] -> ()
  | results ->
    let module J = Artemis.Json in
    write_json "BENCH_results.json"
      (J.Obj
         [ ("meta", bench_meta ());
           ("results",
            J.List
              (List.map
                 (fun (name, time_s, tflops, bottleneck) ->
                   J.Obj
                     [ ("name", J.Str name); ("time_s", J.Float time_s);
                       ("tflops", J.Float tflops); ("bottleneck", J.Str bottleneck) ])
                 results));
           ("metrics", Artemis.Metrics.snapshot ()) ])

(* ------------------------------------------------------------------ *)
(* Shared tuning wrappers                                               *)
(* ------------------------------------------------------------------ *)

(* Aggregate TFLOPS over a benchmark's kernels under one per-kernel
   tuning function returning (time, useful flops). *)
let aggregate kernels tune_one =
  let time = ref 0.0 and flops = ref 0.0 in
  List.iter
    (fun k ->
      match tune_one k with
      | Some (t, f) ->
        time := !time +. t;
        flops := !flops +. f
      | None -> ())
    kernels;
  if !time > 0.0 then !flops /. !time /. 1e12 else 0.0

let tune_global scheme (k : I.kernel) =
  let opts =
    match scheme with
    | `Tiled -> O.global_tiled
    | `Stream -> O.global_stream
  in
  let base = Artemis.Lower.lower dev k opts in
  let knobs =
    { Artemis_tune.Hierarchical.default_knobs with
      try_retime = false; try_fold = false; try_concurrent = false; top_n = 2 }
  in
  match Artemis_tune.Hierarchical.tune ~knobs base with
  | Some r -> Some (r.best.time_s, r.best.counters.useful_flops)
  | None -> None

let tune_artemis ?(iterative = false) (k : I.kernel) =
  let r = Artemis.optimize_kernel ~iterative k in
  Some (r.tuned.time_s, r.tuned.counters.useful_flops)

(* ARTEMIS on rhs4sgcurv reports the trivial-split version (Section
   VIII-F). *)
let artemis_kernels (b : Suite.t) =
  let ks = Suite.kernels b in
  if b.name = "rhs4sgcurv" then List.concat_map Artemis.Fission.trivial ks else ks

let stencilgen_result (b : Suite.t) =
  let ks = Suite.kernels b in
  if b.family = Suite.Sw4lite then None  (* mixed-dimensionality SW4 family *)
  else begin
    let time = ref 0.0 and flops = ref 0.0 and ok = ref true in
    List.iter
      (fun k ->
        match Artemis_baselines.Stencilgen.tune dev k with
        | Artemis_baselines.Stencilgen.Tuned (m, _) ->
          time := !time +. m.time_s;
          flops := !flops +. m.counters.useful_flops
        | Artemis_baselines.Stencilgen.Unsupported _ -> ok := false)
      ks;
    if !ok && !time > 0.0 then Some (!flops /. !time /. 1e12) else None
  end

let ppcg_result (b : Suite.t) =
  let ks = Suite.kernels b in
  let time = ref 0.0 and flops = ref 0.0 in
  List.iter
    (fun k ->
      match Artemis_baselines.Ppcg.tune dev k with
      | Some r ->
        (* the conditional derating applies to time, equivalently *)
        time :=
          !time
          +. (r.measurement.time_s
              *. (r.measurement.tflops /. Float.max r.derated_tflops 1e-9));
        flops := !flops +. r.measurement.counters.useful_flops
      | None -> ())
    ks;
  if !time > 0.0 then !flops /. !time /. 1e12 else 0.0

(* Deep-tuned ARTEMIS number for an iterative benchmark: best per-sweep
   performance over fusion degrees. *)
let artemis_iterative (b : Suite.t) =
  let dr = Artemis.deep_tune ~max_tile:5 b.prog in
  let best =
    List.fold_left
      (fun acc (v : Artemis.Deep.version) -> Float.min acc v.time_per_sweep)
      infinity dr.deep.versions
  in
  let k = List.hd (Suite.kernels b) in
  let sweep_flops =
    match Artemis_exec.Analytic.try_measure (Artemis.Lower.lower dev k O.default) with
    | Some m -> m.counters.useful_flops
    | None -> 0.0
  in
  (sweep_flops /. best /. 1e12, dr)

(* ------------------------------------------------------------------ *)
(* Table I                                                              *)
(* ------------------------------------------------------------------ *)

let table1 () =
  header "Table I: benchmark characteristics (derived from the DSL programs)";
  Printf.printf "%-14s %-8s %4s %3s %8s %12s\n" "Benchmark" "Domain" "T" "k"
    "# Flops" "# IO Arrays";
  List.iter
    (fun (b : Suite.t) ->
      let flops, order, arrays = Suite.characteristics b in
      let e = b.expect in
      let rank = List.length b.prog.Artemis.Ast.params in
      Printf.printf "%-14s %4d^%d %6d %3d %8d %12d   %s\n" b.name b.domain rank
        b.time_steps order flops arrays
        (if flops = e.flops && order = e.order && arrays = e.arrays then
           "(= paper)"
         else "(MISMATCH vs paper!)"))
    Suite.all

(* ------------------------------------------------------------------ *)
(* Figure 4 + Table II                                                  *)
(* ------------------------------------------------------------------ *)

let fig4 () =
  header "Figure 4: deep tuning for arbitrary time iterations";
  List.iter
    (fun name ->
      let b = Suite.find name in
      let dr = Artemis.deep_tune ~max_tile:5 b.prog in
      Printf.printf "%s (paper: rises to a cusp at <= 4, then drops)\n" name;
      List.iter
        (fun (v : Artemis.Deep.version) ->
          let m = v.record.best in
          Printf.printf "  (%dx1)  %.3f TFLOPS   [%s]\n" v.time_tile m.tflops
            (Artemis.Classify.verdict_to_string v.profile.verdict))
        dr.deep.versions;
      Printf.printf "  tipping point: %d (paper: under 4 time steps for all)\n"
        dr.deep.cusp;
      Printf.printf "  opt(T=%d) fusion schedule: [%s], predicted %.3e s\n%!"
        b.time_steps
        (String.concat "; " (List.map string_of_int dr.schedule))
        dr.predicted_time)
    [ "7pt-smoother"; "27pt-smoother" ]

let table2 () =
  header "Table II: OI per fusion degree of 7pt-smoother";
  let b = Suite.find "7pt-smoother" in
  let k = List.hd (Suite.kernels b) in
  Printf.printf "%-10s %8s %8s %8s\n" "version" "OIdram" "OItex" "OIshm";
  let print_row name (c : C.t) =
    let s v = if v = infinity then "-" else Printf.sprintf "%.2f" v in
    Printf.printf "%-10s %8s %8s %8s\n" name (s (C.oi_dram c)) (s (C.oi_tex c))
      (s (C.oi_shm c))
  in
  (match Artemis_tune.Hierarchical.tune (Artemis.Lower.lower dev k O.global_tiled) with
   | Some r -> print_row "global" r.best.counters
   | None -> ());
  let dr = Artemis.deep_tune ~max_tile:5 b.prog in
  List.iter
    (fun (v : Artemis.Deep.version) ->
      print_row (Printf.sprintf "%dx1" v.time_tile) v.record.best.counters)
    dr.deep.versions;
  Printf.printf
    "(paper: OIdram 0.97->5.90 and OItex 0.98->6.42 rise with the fusion\n\
    \ degree; OIshm stays flat ~0.22; the bound shifts onto shared memory)\n%!"

(* ------------------------------------------------------------------ *)
(* Table III                                                            *)
(* ------------------------------------------------------------------ *)

let table3 () =
  header "Table III: OI of the spatial stencils (tuned global versions)";
  Printf.printf "%-12s %6s %10s %10s %7s %10s %7s\n" "bench" "OI_T" "FLOP"
    "Bytedram" "OIdram" "Bytetex" "OItex";
  List.iter
    (fun name ->
      let b = Suite.find name in
      List.iter
        (fun (k : I.kernel) ->
          let base = Artemis.Lower.lower dev k O.global_tiled in
          match Artemis_tune.Hierarchical.tune base with
          | Some r ->
            let c = r.best.counters in
            Printf.printf "%-12s %6.2f %10.2e %10.2e %7.2f %10.2e %7.2f\n%!" name
              (An.theoretical_oi k) c.total_flops c.dram_bytes (C.oi_dram c)
              c.tex_bytes (C.oi_tex c)
          | None -> Printf.printf "%-12s (no valid global configuration)\n" name)
        (Suite.kernels b))
    [ "miniflux"; "hypterm"; "diffterm"; "addsgd4"; "addsgd6"; "rhs4center";
      "rhs4sgcurv" ];
  Printf.printf
    "(paper: every kernel severely bandwidth-bound at texture cache —\n\
    \ OItex 0.10-0.51 << knee 2.35; OIdram spans 0.14-5.69)\n%!"

(* ------------------------------------------------------------------ *)
(* Sections VIII-D and VIII-E                                           *)
(* ------------------------------------------------------------------ *)

let fission () =
  header "Section VIII-D: fission candidates for rhs4sgcurv";
  let k = List.hd (Suite.kernels (Suite.find "rhs4sgcurv")) in
  let maxfuse =
    match tune_artemis k with Some (t, f) -> f /. t /. 1e12 | None -> 0.0
  in
  let split parts = aggregate parts (fun k -> tune_artemis k) in
  let trivial = split (Artemis.Fission.trivial k) in
  let recomp = split (Artemis.Fission.recompute k) in
  Printf.printf "maxfuse           %.3f TFLOPS   (paper 0.48, spills at 255 regs)\n"
    maxfuse;
  Printf.printf "trivial-fission   %.3f TFLOPS   (paper 1.048, three spill-free parts)\n"
    trivial;
  Printf.printf "recompute-fission %.3f TFLOPS\n" recomp;
  Printf.printf "fission speedup   %.2fx          (paper 2.18x)\n%!"
    (if maxfuse > 0.0 then trivial /. maxfuse else 0.0)

let assign () =
  header "Section VIII-E: domain-expert guided resource assignment (addsgd4)";
  let k = List.hd (Suite.kernels (Suite.find "addsgd4")) in
  let run honor =
    (Artemis.optimize_kernel ~opts:{ O.default with O.honor_user_assign = honor } k)
      .tuned.tflops
  in
  let without = run false and with_ = run true in
  Printf.printf "without #assign  %.3f TFLOPS   (paper 0.65)\n" without;
  Printf.printf "with #assign     %.3f TFLOPS   (paper 1.05)\n" with_;
  Printf.printf "improvement      %.2fx          (paper 1.62x)\n%!" (with_ /. without)

(* ------------------------------------------------------------------ *)
(* Figure 5                                                             *)
(* ------------------------------------------------------------------ *)

let fig5 () =
  header "Figure 5: performance on the simulated P100 (TFLOPS)";
  Printf.printf "%-14s %7s %9s %7s %11s %8s\n" "benchmark" "PPCG" "g-stream"
    "global" "STENCILGEN" "ARTEMIS";
  List.iter
    (fun (b : Suite.t) ->
      let ks = Suite.kernels b in
      let ppcg = ppcg_result b in
      let gstream = aggregate ks (tune_global `Stream) in
      let global = aggregate ks (tune_global `Tiled) in
      let sgen = stencilgen_result b in
      let artemis =
        if b.iterative then begin
          let tf, dr = artemis_iterative b in
          let best =
            List.fold_left
              (fun acc (v : Artemis.Deep.version) ->
                match acc with
                | Some (a : Artemis.Deep.version)
                  when a.time_per_sweep <= v.time_per_sweep -> acc
                | _ -> Some v)
              None dr.deep.versions
          in
          (match best with
           | Some v ->
             record_bench b.name ~time_s:v.record.best.time_s ~tflops:tf
               ~bottleneck:(Artemis.Classify.verdict_tag v.profile.verdict)
           | None -> ());
          tf
        end
        else begin
          (* Bottleneck reported for the benchmark is the verdict of its
             last kernel's tuned version. *)
          let verdict = ref "unknown" in
          let time = ref 0.0 in
          let tf =
            aggregate (artemis_kernels b) (fun k ->
                let r = Artemis.optimize_kernel k in
                verdict := Artemis.Classify.verdict_tag r.tuned_profile.verdict;
                time := !time +. r.tuned.time_s;
                Some (r.tuned.time_s, r.tuned.counters.useful_flops))
          in
          record_bench b.name ~time_s:!time ~tflops:tf ~bottleneck:!verdict;
          tf
        end
      in
      Printf.printf "%-14s %7.3f %9.3f %7.3f %11s %8.3f\n%!" b.name ppcg gstream
        global
        (match sgen with Some v -> Printf.sprintf "%.3f" v | None -> "n/s")
        artemis)
    Suite.all;
  Printf.printf
    "(paper shapes: PPCG lowest everywhere; global-stream <= global;\n\
    \ ARTEMIS beats STENCILGEN on all iterative stencils; STENCILGEN cannot\n\
    \ generate the SW4lite kernels; ARTEMIS peaks 1.0-1.7 TFLOPS)\n%!"

(* ------------------------------------------------------------------ *)
(* Figure 6                                                             *)
(* ------------------------------------------------------------------ *)

let fig6 () =
  header "Figure 6: interaction between optimizations and autotuning (TFLOPS)";
  let module H = Artemis_tune.Hierarchical in
  let baseline_block (b : Suite.t) use_shared =
    if not use_shared then [| 4; 4; 16 |]  (* (x=16,y=4,z=4) non-streaming *)
    else if b.iterative then [| 1; 16; 32 |]  (* (x=32,y=16) *)
    else [| 1; 16; 16 |]  (* (x=16,y=16) register-constrained spatial *)
  in
  let measure_with (b : Suite.t) use_shared variant =
    let ks = Suite.kernels b in
    aggregate ks (fun k ->
        let opts = if use_shared then O.default else O.global_tiled in
        let base0 = Artemis.Lower.lower dev k { opts with O.block = None } in
        let base =
          { base0 with Plan.block = baseline_block b use_shared; max_regs = 255 }
        in
        let base =
          if Artemis_ir.Validate.is_valid base then base
          else { base with Plan.block = [| 1; 8; 16 |] }
        in
        let result =
          match variant with
          | `Base -> Artemis_exec.Analytic.try_measure base
          | `Tb ->
            Option.map
              (fun (r : H.record) -> r.phase1_best)
              (H.tune
                 ~knobs:
                   { H.default_knobs with try_unroll = false; try_prefetch = false;
                     try_concurrent = false; try_perspective = false;
                     try_retime = false; try_fold = false }
                 base0)
          | `Unroll ->
            let unrolls =
              Artemis_tune.Space.unroll_candidates ~rank:(Plan.rank base)
                ~scheme:base.Plan.scheme ~bound:8
            in
            List.fold_left
              (fun acc u ->
                match
                  Artemis_exec.Analytic.try_measure { base with Plan.unroll = u }
                with
                | Some m -> (
                  match acc with
                  | Some (a : Artemis_exec.Analytic.measurement)
                    when a.tflops >= m.tflops -> acc
                  | _ -> Some m)
                | None -> acc)
              None unrolls
          | `Misc -> Option.map (fun (r : H.record) -> r.best) (H.tune base0)
        in
        Option.map
          (fun (m : Artemis_exec.Analytic.measurement) ->
            (m.time_s, m.counters.useful_flops))
          result)
  in
  Printf.printf "%-14s | %23s | %23s\n" "" "global" "sh+reg";
  Printf.printf "%-14s | %5s %5s %6s %5s | %5s %5s %6s %5s\n" "benchmark" "base"
    "TB" "unroll" "misc" "base" "TB" "unroll" "misc";
  List.iter
    (fun (b : Suite.t) ->
      let row use_shared =
        List.map (measure_with b use_shared) [ `Base; `Tb; `Unroll; `Misc ]
      in
      let g = row false and s = row true in
      let p v = Printf.sprintf "%5.2f" v in
      match (g, s) with
      | [ g1; g2; g3; g4 ], [ s1; s2; s3; s4 ] ->
        Printf.printf "%-14s | %s %s %6s %s | %s %s %6s %s\n%!" b.name (p g1) (p g2)
          (p g3) (p g4) (p s1) (p s2) (p s3) (p s4)
      | _ -> ())
    Suite.all;
  Printf.printf
    "(paper shapes: TB variation helps the shared versions of high-order\n\
    \ stencils most; unrolling helps iterative shared versions, not the\n\
    \ register-constrained spatial ones; 'misc' — prefetch + retiming +\n\
    \ folding + load/compute adjustment — is the best column nearly\n\
    \ everywhere)\n%!"

(* ------------------------------------------------------------------ *)
(* Section V tuning cost                                                *)
(* ------------------------------------------------------------------ *)

let tuningcost () =
  header "Section V: hierarchical vs generic autotuning cost (7pt Jacobi)";
  let k = List.hd (Suite.kernels (Suite.find "7pt-smoother")) in
  let base = Artemis.Lower.lower dev k O.default in
  match Artemis_tune.Hierarchical.tune base with
  | Some h ->
    let ot = Artemis_tune.Opentuner_sim.tune ~budget:4000 base in
    Printf.printf "full cross-product space       : %d configurations\n" ot.space_size;
    Printf.printf "generic search attempted       : %d configurations (budget cap)\n"
      ot.attempted;
    Printf.printf "generic search measured        : %d valid configurations\n"
      ot.measured;
    Printf.printf "hierarchical tuning measured   : %d configurations\n" h.explored;
    Printf.printf "pruning factor                 : %.1fx\n"
      (float_of_int ot.space_size /. float_of_int (max h.explored 1));
    (match ot.best with
     | Some o ->
       Printf.printf "best (exhaustive, 4000 cap)    : %.3f TFLOPS\n" o.tflops;
       Printf.printf "best (hierarchical)            : %.3f TFLOPS (%.0f%% of it)\n"
         h.best.tflops
         (100.0 *. h.best.tflops /. o.tflops)
     | None -> ());
    Printf.printf
      "(paper: OpenTuner took >24h for exhaustive tuning; hierarchical\n\
      \ tuning reached similar performance in <5h)\n%!"
  | None -> print_endline "tuning failed"

(* ------------------------------------------------------------------ *)
(* Ablations of the machine-model calibration (DESIGN.md, Section 5)    *)
(* ------------------------------------------------------------------ *)

let ablation () =
  header "Ablation: sensitivity of headline results to model calibration";
  let k7 = List.hd (Suite.kernels (Suite.find "7pt-smoother")) in
  let kc = List.hd (Suite.kernels (Suite.find "rhs4center")) in
  let k6 = List.hd (Suite.kernels (Suite.find "addsgd6")) in
  let tuned device k =
    let base = Artemis.Lower.lower device k O.default in
    match Artemis_tune.Hierarchical.tune ~knobs:{ Artemis_tune.Hierarchical.default_knobs with top_n = 2 } base with
    | Some r -> r.best.tflops
    | None -> 0.0
  in
  Printf.printf "effective DP issue latency (cycles) — the latency knee:\n";
  List.iter
    (fun lat ->
      let d = { dev with Artemis.Device.dp_latency_cycles = lat } in
      Printf.printf
        "  latency %4.0f: addsgd6 %.3f TFLOPS, rhs4center %.3f TFLOPS\n%!" lat
        (tuned d k6) (tuned d kc))
    [ 8.0; 16.0; 24.0 ];
  Printf.printf "L2 capacity — the streaming-without-shared-memory penalty:\n";
  List.iter
    (fun mb ->
      let d = { dev with Artemis.Device.l2_bytes = mb * 1024 * 1024 } in
      let p = Artemis.Lower.lower d k7 O.global_stream in
      match Artemis_exec.Analytic.try_measure p with
      | Some m -> Printf.printf "  L2 %2d MB: 7pt global-stream %.3f TFLOPS\n%!" mb m.tflops
      | None -> ())
    [ 2; 4; 8; 16 ];
  Printf.printf "halo L2-miss fraction — inter-block overlap refetch cost:\n";
  List.iter
    (fun hm ->
      let d = { dev with Artemis.Device.halo_miss = hm } in
      Printf.printf "  halo_miss %.1f: 7pt %.3f, rhs4center %.3f TFLOPS\n%!" hm
        (tuned d k7) (tuned d kc))
    [ 0.3; 0.5; 0.7; 1.0 ];
  Printf.printf
    "(the qualitative orderings of Figs 4-6 are stable across these sweeps;\n\
    \ absolute TFLOPS shift by tens of percent)\n%!"

(* ------------------------------------------------------------------ *)
(* Extras: 2-D image-pipeline stencils (beyond the paper's Table I)     *)
(* ------------------------------------------------------------------ *)

let extras () =
  header "Extras: 2-D stencils (2048^2) across schemes";
  let module X = Artemis_bench.Extras in
  Printf.printf "%-14s %8s %9s %9s %9s %8s\n" "benchmark" "g-tiled" "g-stream"
    "sh-tiled" "sh-stream" "ARTEMIS";
  List.iter
    (fun (b : X.t) ->
      let ks = X.kernels b in
      let with_opts opts =
        aggregate ks (fun k ->
            match Artemis_exec.Analytic.try_measure (Artemis.Lower.lower dev k opts) with
            | Some m -> Some (m.time_s, m.counters.useful_flops)
            | None -> None)
      in
      let artemis =
        aggregate ks (fun k -> tune_artemis ~iterative:b.iterative k)
      in
      Printf.printf "%-14s %8.3f %9.3f %9.3f %9.3f %8.3f\n%!" b.name
        (with_opts O.global_tiled)
        (with_opts O.global_stream)
        (with_opts { O.default with O.scheme = O.Force_tiled })
        (with_opts O.default)
        artemis)
    X.all;
  (* heat2d also deep-tunes: the 2-D fusion cusp. *)
  let b = X.find "heat2d" in
  let dr = Artemis.deep_tune ~max_tile:5 b.prog in
  Printf.printf "heat2d deep tuning:";
  List.iter
    (fun (v : Artemis.Deep.version) ->
      Printf.printf "  (%dx1) %.3f" v.time_tile v.record.best.tflops)
    dr.deep.versions;
  Printf.printf "\n  opt(T=16) = [%s]\n%!"
    (String.concat "; " (List.map string_of_int dr.schedule))

(* ------------------------------------------------------------------ *)
(* Device portability: the V100 entry                                   *)
(* ------------------------------------------------------------------ *)

let v100 () =
  header "Portability: re-tuning three benchmarks for a V100-class device";
  let d = Artemis.Device.v100 in
  Printf.printf "%s\n" (Format.asprintf "%a" Artemis.Device.pp d);
  List.iter
    (fun name ->
      let b = Suite.find name in
      let ks = Suite.kernels b in
      let tf device =
        aggregate ks (fun k ->
            let base = Artemis.Lower.lower device k O.default in
            match Artemis_tune.Hierarchical.tune ~knobs:{ Artemis_tune.Hierarchical.default_knobs with top_n = 2 } base with
            | Some r -> Some (r.best.time_s, r.best.counters.useful_flops)
            | None -> None)
      in
      Printf.printf "%-14s P100 %.3f -> V100 %.3f TFLOPS\n%!" name (tf dev) (tf d))
    [ "7pt-smoother"; "27pt-smoother"; "rhs4center" ];
  Printf.printf
    "(more SMs, more shared memory, and higher bandwidth lift every kernel;\n\
    \ the tuner picks different block shapes per device)\n%!"

(* ------------------------------------------------------------------ *)
(* Tuner determinism: serial vs jobs=4, cache cold vs warm, pre-rank    *)
(* ------------------------------------------------------------------ *)

(* The whole tuning/verification stack across execution configurations.
   Every pre-rank-off row must produce byte-identical tuning artifacts,
   and the pre-rank rows must choose the same plans from fewer analytic
   measurements — both asserted and reported. *)

(* A row's measurement store: none, a fresh temporary [--cache-dir], or
   the last [Cold] row's directory, already filled. *)
type cache = Off | Cold | Warm

type tuner_cfg = {
  cfg_name : string;
  cfg_jobs : int;
  cfg_cache : cache;
  cfg_prerank : float;  (* pre-rank keep %% (100 = off) *)
}

let tuner_configs =
  let prerank = Artemis.Hierarchical.default_prerank_keep in
  [ { cfg_name = "serial-cold"; cfg_jobs = 1; cfg_cache = Off; cfg_prerank = 100.0 };
    { cfg_name = "jobs4-cold"; cfg_jobs = 4; cfg_cache = Cold; cfg_prerank = 100.0 };
    { cfg_name = "jobs4-warm"; cfg_jobs = 4; cfg_cache = Warm; cfg_prerank = 100.0 };
    { cfg_name = "prerank-serial-cold"; cfg_jobs = 1; cfg_cache = Off;
      cfg_prerank = prerank };
    { cfg_name = "prerank-jobs4-cold"; cfg_jobs = 4; cfg_cache = Cold;
      cfg_prerank = prerank };
    { cfg_name = "prerank-jobs4-warm"; cfg_jobs = 4; cfg_cache = Warm;
      cfg_prerank = prerank } ]

(* The three components.  Each returns a printable artifact that must be
   identical across configurations. *)
let tuner_components ~fuzz_cases ~max_tile ~prerank_keep =
  let opt () =
    let k = List.hd (Suite.kernels (Suite.find "7pt-smoother")) in
    let r = Artemis.optimize_kernel ~prerank_keep k in
    Printf.sprintf "%s explored=%d" (Plan.label r.tuned.plan) r.explored
  in
  let deep () =
    let b = Suite.find "7pt-smoother" in
    let dr = Artemis.deep_tune ~max_tile ~prerank_keep b.prog in
    String.concat ";"
      (List.map
         (fun (v : Artemis.Deep.version) ->
           Printf.sprintf "%d:%s" v.time_tile (Plan.label v.record.best.plan))
         dr.deep.versions)
    ^ Printf.sprintf "|sched=[%s]"
        (String.concat ";" (List.map string_of_int dr.schedule))
  in
  let fuzz () =
    let s = Artemis_verify.Harness.run ~lint:true ~seed:11 ~cases:fuzz_cases () in
    Printf.sprintf "trials=%d plans=%d findings=%d" s.trials_run s.plans_checked
      (List.length s.findings)
  in
  [ ("optimize", opt); ("deep", deep); ("fuzz", fuzz) ]

(* One configuration's (component, artifact, analytic measures) rows —
   the measure count is the [exec.analytic_measures] delta over the
   component, the denominator of the pre-rank savings indicator. *)
let m_measures = Artemis.Metrics.counter "exec.analytic_measures"

let measured_row (name, f) =
  let before = Artemis.Metrics.counter_value m_measures in
  let artifact = f () in
  (name, artifact, Artemis.Metrics.counter_value m_measures -. before)

let tuner_rows ~fuzz_cases ~max_tile cfg =
  with_jobs cfg.cfg_jobs (fun () ->
      List.map measured_row
        (tuner_components ~fuzz_cases ~max_tile ~prerank_keep:cfg.cfg_prerank))

(* Every configuration's rows, in order: a [Cold] row fills a fresh
   temporary store and a [Warm] row reads the last one back. *)
let tuner_matrix ~fuzz_cases ~max_tile =
  let dirs = ref [] in
  let run cfg =
    let rows () = tuner_rows ~fuzz_cases ~max_tile cfg in
    if cfg.cfg_cache = Cold then dirs := Filename.temp_dir "artemis-bench-cache" "" :: !dirs;
    if cfg.cfg_cache = Off then rows () else Artemis.Measure_cache.with_dir (List.hd !dirs) rows
  in
  let remove d =
    Array.iter (fun e -> Sys.remove (Filename.concat d e)) (Sys.readdir d);
    Sys.rmdir d
  in
  Fun.protect
    ~finally:(fun () -> List.iter remove !dirs)
    (fun () -> List.map (fun cfg -> (cfg, run cfg)) tuner_configs)

(* Analytic measurements spent on the tuning components — the work the
   pre-rank is meant to save.  The fuzz component never
   enters the tuner, so it is excluded on both sides. *)
let tuned_measures rows =
  List.fold_left
    (fun acc (name, _, m) ->
      if name = "optimize" || name = "deep" then acc +. m else acc)
    0.0 rows

let artifacts rows = List.map (fun (name, a, _) -> (name, a)) rows

(* Plan-identity view of a row's artifacts: the optimize artifact
   carries the measurement count ("explored=N"), which pre-ranking is
   designed to shrink, so prerank rows are compared on the chosen plans
   alone. *)
let strip_explored a =
  let marker = " explored=" in
  let alen = String.length a and mlen = String.length marker in
  let rec find i =
    if i + mlen > alen then a
    else if String.sub a i mlen = marker then String.sub a 0 i
    else find (i + 1)
  in
  find 0

let plan_artifacts rows = List.map (fun (name, a, _) -> (name, strip_explored a)) rows

let tuner_report matrix =
  let find name = snd (List.find (fun (c, _) -> c.cfg_name = name) matrix) in
  let serial = find "serial-cold" in
  (* Full-artifact byte-identity across the prerank-off rows (the
     jobs/cache invariant), plan identity for the prerank rows (same
     winner from a fraction of the measurements). *)
  let plans_equal =
    List.for_all
      (fun (cfg, rows) -> cfg.cfg_prerank < 100.0 || artifacts rows = artifacts serial)
      matrix
  in
  let prerank_plan_equal =
    List.for_all
      (fun (cfg, rows) ->
        cfg.cfg_prerank >= 100.0 || plan_artifacts rows = plan_artifacts serial)
      matrix
  in
  let measurements_saved_pct =
    let off = tuned_measures serial in
    let on = tuned_measures (find "prerank-serial-cold") in
    if off <= 0.0 then 0.0 else (off -. on) /. off *. 100.0
  in
  (plans_equal, prerank_plan_equal, measurements_saved_pct)

let write_tuner_json matrix =
  let module J = Artemis.Json in
  let plans_equal, prerank_plan_equal, measurements_saved_pct = tuner_report matrix in
  write_json "BENCH_tuner.json"
    (J.Obj
       [ ("meta", bench_meta ());
         ("configs",
          J.List
            (List.map
               (fun (cfg, rows) ->
                 J.Obj
                   [ ("name", J.Str cfg.cfg_name); ("jobs", J.Int cfg.cfg_jobs);
                     ( "cache",
                       J.Str (match cfg.cfg_cache with Off -> "off" | Cold -> "cold" | Warm -> "warm") );
                     ("prerank_keep_pct", J.Float cfg.cfg_prerank);
                     ("components",
                      J.List
                        (List.map
                           (fun (name, artifact, measures) ->
                             J.Obj
                               [ ("name", J.Str name); ("artifact", J.Str artifact);
                                 ("analytic_measures", J.Float measures) ])
                           rows)) ])
               matrix));
         ("plans_equal", J.Bool plans_equal);
         ("prerank_plan_equal", J.Bool prerank_plan_equal);
         ("measurements_saved_pct", J.Float measurements_saved_pct) ])

let tuner () =
  header "Tuner determinism (serial vs jobs=4, cache cold vs warm, pre-rank)";
  let matrix = tuner_matrix ~fuzz_cases:60 ~max_tile:3 in
  List.iter
    (fun (cfg, rows) ->
      Printf.printf "%-19s" cfg.cfg_name;
      List.iter (fun (name, _, m) -> Printf.printf "  %s %5.0f measures" name m) rows;
      print_newline ())
    matrix;
  let plans_equal, prerank_plan_equal, measurements_saved_pct = tuner_report matrix in
  Printf.printf "artifacts identical          : %b\n" plans_equal;
  Printf.printf "prerank same plans           : %b\n" prerank_plan_equal;
  Printf.printf "prerank measurements saved   : %.1f%%\n%!" measurements_saved_pct;
  write_tuner_json matrix

(* Hidden smoke variant (resolvable by name only, not part of the
   default run): tiny scale, serial vs jobs=2, hard assertion on
   artifact identity — the `make perf-smoke` gate. *)
let tuner_smoke () =
  header "perf smoke: serial vs jobs=2 on a tiny workload";
  let serial = List.hd tuner_configs in
  let artifacts_of cfg = artifacts (tuner_rows ~fuzz_cases:12 ~max_tile:2 cfg) in
  let equal =
    artifacts_of serial
    = artifacts_of { serial with cfg_name = "jobs2-cold"; cfg_jobs = 2 }
  in
  Printf.printf "serial vs jobs2 artifacts identical %b\n%!" equal;
  if not equal then begin
    prerr_endline "perf-smoke FAILED: artifacts differ between serial and jobs=2";
    exit 1
  end

(* Hidden smoke variant (`make model-smoke`): on every registry device,
   every suite benchmark at full size, tuned as `artemisc explain --bench
   B --device D` tunes it ([optimize_kernel] per kernel, then [deep_tune]
   on the iterative ones), must end in the same plans at the same TFLOPS
   under the default pre-rank cut as with every candidate measured, from
   strictly fewer measurements per device; and the decision journal with
   pre-ranking on must be byte-identical between jobs=1 and jobs=4. *)
let model_smoke () =
  header "model smoke: pre-rank cut vs every candidate measured, suite x devices";
  (* Every chosen plan and its TFLOPS, in tuning order, the analytic
     measurements spent choosing them, and the exact / sketch score
     ratio of every candidate they measured, read from the journal. *)
  let tune_suite pct tune =
    with_jobs 2 (fun () ->
        Artemis.Journal.start ();
        let before = Artemis.Metrics.counter_value m_measures in
        let chosen =
          List.concat_map
            (fun (b : Suite.t) ->
              List.map
                (fun (m : Artemis.Analytic.measurement) ->
                  Printf.sprintf "%s %s %.17g" b.name (Plan.label m.plan) m.tflops)
                (tune pct b))
            Suite.all
        in
        let ratios =
          List.filter_map
            (fun ev -> Option.bind (Artemis.Json.member "exact_over_sketch" ev) Artemis.Json.to_float_opt)
            (Artemis.Journal.events ())
        in
        Artemis.Journal.stop ();
        (chosen, Artemis.Metrics.counter_value m_measures -. before, ratios))
  in
  let deep_bests (r : Artemis.deep_result) =
    List.map (fun (v : Artemis.Deep.version) -> v.record.best) r.deep.versions
  in
  (* As `artemisc explain --bench` tunes each benchmark... *)
  let suite device pct (b : Suite.t) =
    let tune k =
      (Artemis.optimize_kernel ~device ~iterative:b.iterative ~prerank_keep:pct k).tuned
    in
    List.map tune (Suite.kernels b)
    @ if b.iterative then deep_bests (Artemis.deep_tune ~device ~prerank_keep:pct b.prog)
      else []
  in
  (* ...and with temporal blocking to degree 4 on the iterative ones,
     where the degrees multiply the candidates. *)
  let temporal device pct (b : Suite.t) =
    if b.iterative then
      deep_bests (Artemis.deep_tune ~device ~max_degree:4 ~prerank_keep:pct b.prog)
    else []
  in
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        prerr_endline ("model-smoke FAILED: " ^ m);
        exit 1)
      fmt
  in
  List.iter
    (fun (alias, device) ->
      List.iter
        (fun (what, tune) ->
          let off, n_off, ratios = tune_suite 100.0 (tune device) in
          let on, n_on, _ =
            tune_suite Artemis.Hierarchical.default_prerank_keep (tune device)
          in
          let least = List.fold_left Float.min infinity ratios in
          Printf.printf
            "%-5s %-8s measures %6.0f -> %6.0f  %d choices  least exact/sketch %.4f\n%!"
            alias what n_off n_on (List.length on) least;
          List.iter2
            (fun a b ->
              if a <> b then
                fail "%s %s choice changed under pre-rank (%s vs %s)" alias what a b)
            off on;
          if n_on >= n_off then
            fail "%s %s pre-rank saved no measurements (%.0f >= %.0f)" alias what n_on
              n_off;
          (* The floor the error bound stops on must hold for every
             candidate the uncut search measured. *)
          if not (List.for_all (fun r -> r >= Artemis.Predict.sketch_floor) ratios) then
            fail "%s %s exact/sketch score %.4f below the sketch floor %g" alias what least
              Artemis.Predict.sketch_floor)
        [ ("suite", suite); ("degree-4", temporal) ])
    Artemis.Device.registry;
  let k = List.hd (Suite.kernels (Suite.at_size 32 (Suite.find "7pt-smoother"))) in
  (* Journal byte-identity at jobs=1 vs jobs=4 with pre-ranking on: the
     prerank decisions are journaled on the main domain in canonical
     order, so fan-out must not show. *)
  let journal_with jobs =
    with_jobs jobs (fun () ->
        Artemis.Journal.start ();
        ignore
          (Artemis.optimize_kernel
             ~prerank_keep:Artemis.Hierarchical.default_prerank_keep k);
        let out = Artemis.Journal.to_jsonl () in
        Artemis.Journal.stop ();
        out)
  in
  let serial = journal_with 1 and fanned = journal_with 4 in
  Printf.printf "journal jobs=1 vs jobs=4 identical %b\n%!" (serial = fanned);
  if serial <> fanned then
    fail "journal differs between jobs=1 and jobs=4 with pre-ranking on"

(* ------------------------------------------------------------------ *)
(* Executor agreement: reference executor vs block executor             *)
(* ------------------------------------------------------------------ *)

(* The whole suite plus a fuzz-corpus replay, through both the reference
   executor and the block executor: copyout arrays must be bit-identical
   — asserted and reported.  The point-wise interpreter comparison lives
   in the tests (test/test_split.ml), the fuzz oracle and
   [make perf-smoke]. *)

(* Default plan with the block shape shrunk until launchable — the
   tuner's validity filter, so heavy kernels run at bench sizes. *)
let exec_plan_of k = Artemis_verify.Sampler.shrink_valid (Artemis.Lower.lower dev k O.default) 12

(* Copyout grids of [prog] after [run] executes on a fresh store. *)
let copyouts (prog : Artemis.Ast.program) run =
  let store = Artemis.Reference.store_of_program prog in
  run store;
  List.map
    (fun n -> (n, Artemis_exec.Grid.copy (Artemis.Reference.find_array store n)))
    prog.copyout

(* The reference executor's copyouts after [reps] runs of the program's
   instantiated schedule [sched] under the executor [schedule]. *)
let reference_copyouts ?schedule ?(reps = 1) (prog : Artemis.Ast.program) sched =
  let scalars = Artemis.Reference.scalars_of_program prog in
  copyouts prog (fun store ->
      for _ = 1 to reps do
        Artemis.Reference.run_schedule ?schedule store ~scalars sched
      done)

(* The block executor's copyouts over configured [steps]. *)
let block_copyouts ?schedule prog steps =
  let scalars = Artemis.Reference.scalars_of_program prog in
  copyouts prog (fun store ->
      ignore (Artemis.Runner.run_schedule ?schedule steps store ~scalars))

(* One program end to end, instantiated once: the copyout grids of the
   reference executor and of the block executor. *)
let exec_run ?schedule prog =
  let sched = I.schedule prog in
  let reference = reference_copyouts ?schedule prog sched in
  let steps = Artemis.Runner.configure ~plan_of:exec_plan_of sched in
  (reference, block_copyouts ?schedule prog steps)

let outputs_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (n, g) (n', g') ->
         n = n' && Artemis_exec.Grid.max_abs_diff g g' = 0.0)
       a b

(* Suite programs then a fuzz-corpus replay: per program, whether the
   two executors agree. *)
let executor_agreement ~size ~fuzz_cases =
  let progs =
    List.map (fun (b : Suite.t) -> (b.name, (Suite.at_size size b).prog)) Suite.all
    @ List.init fuzz_cases (fun index ->
          ( Printf.sprintf "fuzz-%d" index,
            (Artemis_verify.Gen.generate ~seed:23 ~index).prog ))
  in
  List.map
    (fun (name, prog) ->
      let reference, blocks = exec_run prog in
      (name, outputs_equal reference blocks))
    progs

(* ------------------------------------------------------------------ *)
(* Dependent stencils: wavefront schedule vs point-wise interpreter     *)
(* ------------------------------------------------------------------ *)

(* Gauss-Seidel and SOR bodies carry a uniform self-dependence, so the
   executors run them as anti-diagonal wavefronts: the rows of each
   hyperplane are mutually independent (parallelized across the pool)
   and swept with the flat-index bounds-check-free inner loop.
   The [Interpret] schedule sweeps the same region point by point in
   lexicographic order.  Both traversals realize the same
   dependence-respecting order, so every copyout grid must be
   bit-identical — asserted here, and pinned case by case by the fuzz
   oracle (invariant 4 in lib/verify/oracle.mli). *)

let gs2d_src ~n ~m =
  Printf.sprintf
    {|parameter L=%d, M=%d; iterator j, i;
      double u[L,M], f[L,M]; copyin u, f;
      stencil gs (x, g) {
        x[j][i] = 0.25 * (x[j][i-1] + x[j-1][i] + x[j][i+1] + x[j+1][i]) + 0.0625 * g[j][i];
      }
      gs (u, f); copyout u;|}
    n m

let sor3d_src ~n =
  Printf.sprintf
    {|parameter N=%d; iterator k, j, i;
      double u[N,N,N]; copyin u;
      stencil sor (x) {
        x[k][j][i] = 0.0625 * x[k][j][i] + 0.125 * (x[k][j][i-1] + x[k][j-1][i] + x[k-1][j][i] + x[k][j][i+1] + x[k][j+1][i] + x[k+1][j][i]);
      }
      sor (u); copyout u;|}
    n

let dependent_cases ~size2 ~size3 =
  [ ("gs2d", Artemis.parse_string (gs2d_src ~n:size2 ~m:size2));
    ("sor3d", Artemis.parse_string (sor3d_src ~n:size3)) ]

(* Reference-executor copyouts after [reps] sweeps under each schedule
   must be bit-identical. *)
let dependent_equal prog ~reps =
  let sched = I.schedule prog in
  let wavefront = reference_copyouts ~reps prog sched in
  outputs_equal wavefront
    (reference_copyouts ~schedule:Artemis.Eval.Interpret ~reps prog sched)

let dependent_rows ~size2 ~size3 ~reps =
  List.map
    (fun (name, prog) -> (name, dependent_equal prog ~reps))
    (dependent_cases ~size2 ~size3)

(* ------------------------------------------------------------------ *)
(* Jobs determinism: grids and journal at jobs=1 vs jobs=4              *)
(* ------------------------------------------------------------------ *)

(* Wavefront bands fan out over the pool; the journal folds worker
   events at canonical points.  Both the copyout grids and the recorded
   journal must be byte-identical at any worker count. *)
let jobs_determinism () =
  let progs =
    [ (Suite.at_size 24 (Suite.find "7pt-smoother")).prog;
      Artemis.parse_string (gs2d_src ~n:96 ~m:96) ]
  in
  let run jobs =
    Artemis.Pool.set_jobs jobs;
    Artemis.Journal.start ();
    let outs =
      List.concat_map
        (fun p ->
          let reference, blocks = exec_run p in
          reference @ blocks)
        progs
    in
    let jl = Artemis.Journal.to_jsonl () in
    Artemis.Journal.stop ();
    (outs, jl)
  in
  let o1, j1 = run 1 in
  let o4, j4 = run 4 in
  Artemis.Pool.set_jobs 1;
  (outputs_equal o1 o4, j1 = j4)

(* ------------------------------------------------------------------ *)
(* Degree-N temporal blocking: traffic reduction and exactness          *)
(* ------------------------------------------------------------------ *)

(* The blocked executor must be semantically exact: one launch covering
   b inner time steps replaces b ping-pong launches bit for bit.  The
   comparison runs the full schedule both ways through the block
   executor at a reduced size; blocked plans are re-shrunk because the
   deeper halo windows can outgrow shared memory at the degree-1 block
   shape (the fuzz oracle applies the same re-shrink). *)
let rec shrink_blocked steps =
  List.map
    (function
      | Artemis.Runner.Run_plan p when p.Plan.temporal.Plan.degree > 1 ->
        Artemis.Runner.Run_plan (Artemis_verify.Sampler.shrink_valid p 12)
      | Artemis.Runner.Loop (n, sub) -> Artemis.Runner.Loop (n, shrink_blocked sub)
      | step -> step)
    steps

(* [b] at [size], instantiated once, with its executor-configured steps. *)
let configured (b : Suite.t) ~size =
  let prog = (Suite.at_size size b).prog in
  (prog, Artemis.Runner.configure ~plan_of:exec_plan_of (I.schedule prog))

let temporal_blocked_equal (prog, steps) ~degree =
  let plain = block_copyouts prog steps in
  outputs_equal plain
    (block_copyouts prog (shrink_blocked (Artemis.Runner.temporal_rewrite ~degree steps)))

(* The degree-[degree] blocked schedule of a [configured] program under
   the row schedule, against the same blocked schedule under the
   point-wise interpreter: whether the copyouts are identical, and the
   interior and guarded points the row run swept. *)
let temporal_rows_vs_interpreter (prog, steps) ~degree =
  let blocked = shrink_blocked (Artemis.Runner.temporal_rewrite ~degree steps) in
  let m_int = Artemis.Metrics.counter "exec.interior_points" in
  let m_gd = Artemis.Metrics.counter "exec.guarded_points" in
  let int0 = Artemis.Metrics.counter_value m_int in
  let gd0 = Artemis.Metrics.counter_value m_gd in
  let rows = block_copyouts ~schedule:Artemis.Eval.Rows prog blocked in
  let interior = Artemis.Metrics.counter_value m_int -. int0 in
  let guarded = Artemis.Metrics.counter_value m_gd -. gd0 in
  let interp = block_copyouts ~schedule:Artemis.Eval.Interpret prog blocked in
  (outputs_equal rows interp, interior, guarded)

(* The smoother-family benchmarks deep-tuned with the temporal dimension
   enabled.  Per benchmark: the chosen (fusion width x degree), the
   modeled per-time-step DRAM traffic of the blocked winner against the
   unblocked phase-1 winner at the same fusion width, and the per-sweep
   speedup.  The traffic ratio isolates the temporal dimension: both
   sides share the spatial fusion width. *)
let temporal_deep_names =
  [ "7pt-smoother"; "jacobi7-iter"; "27pt-smoother"; "helmholtz";
    "smooth2d-iter" ]

let best_version (dr : Artemis.deep_result) =
  List.fold_left
    (fun acc (v : Artemis.Deep.version) ->
      match acc with
      | Some (a : Artemis.Deep.version) when a.time_per_sweep <= v.time_per_sweep
        -> acc
      | _ -> Some v)
    None dr.deep.versions

let temporal_deep_rows () =
  List.filter_map
    (fun name ->
      let b = Suite.find name in
      let dr = Artemis.deep_tune ~max_tile:4 ~max_degree:4 b.prog in
      match best_version dr with
      | None -> None
      | Some v ->
        let x = float_of_int v.time_tile in
        let steps = float_of_int (Artemis.Deep.steps_covered v) in
        let per_step_unblocked = v.record.phase1_best.counters.C.dram_bytes /. x in
        let per_step_blocked = v.record.best.counters.C.dram_bytes /. steps in
        let reduction = per_step_unblocked /. Float.max per_step_blocked 1.0 in
        let speedup =
          v.record.phase1_best.time_s /. x /. Float.max v.time_per_sweep 1e-15
        in
        Some (name, v.time_tile, v.degree, reduction, speedup))
    temporal_deep_names

let temporal_equal_rows () =
  List.filter_map
    (fun (b : Suite.t) ->
      if b.iterative then
        Some (b.name, temporal_blocked_equal (configured b ~size:20) ~degree:4)
      else None)
    Suite.all

let all_equal rows = List.for_all snd rows

let write_exec_json exec_rows dep_rows (jobs_outs_eq, jobs_journal_eq)
    temporal_rows temporal_eq =
  let module J = Artemis.Json in
  write_json "BENCH_exec.json"
    (J.Obj
       [ ("meta", bench_meta ());
         ("dependent",
          J.List
            (List.map
               (fun (name, equal) ->
                 J.Obj [ ("name", J.Str name); ("outputs_equal", J.Bool equal) ])
               dep_rows));
         ("temporal",
          J.List
            (List.map
               (fun (name, tile, degree, reduction, speedup) ->
                 J.Obj
                   [ ("name", J.Str name);
                     ("chosen_tile", J.Str (string_of_int tile));
                     ("chosen_degree", J.Str (string_of_int degree));
                     ("chosen_degree_gt1", J.Bool (degree > 1));
                     ("dram_traffic_reduction", J.Float reduction);
                     ("speedup_temporal_vs_unblocked", J.Float speedup) ])
               temporal_rows));
         ("temporal_blocked",
          J.List
            (List.map
               (fun (name, eq) ->
                 J.Obj [ ("name", J.Str name); ("blocked_outputs_equal", J.Bool eq) ])
               temporal_eq));
         ("jobs_outputs_equal", J.Bool jobs_outs_eq);
         ("jobs_journal_equal", J.Bool jobs_journal_eq);
         ("outputs_equal", J.Bool (all_equal exec_rows));
         ("wavefront_outputs_equal", J.Bool (all_equal dep_rows)) ])

let exec_bench () =
  header "Executor agreement: reference executor vs block executor";
  let exec_rows = executor_agreement ~size:28 ~fuzz_cases:12 in
  List.iter
    (fun (name, eq) -> if not eq then Printf.printf "%-14s outputs DIFFER\n" name)
    exec_rows;
  Printf.printf "outputs bit-identical        : %b (%d programs)\n%!"
    (all_equal exec_rows) (List.length exec_rows);
  header "Dependent stencils: wavefront schedule vs point-wise interpreter";
  let dep_rows = dependent_rows ~size2:256 ~size3:40 ~reps:4 in
  List.iter (fun (name, eq) -> Printf.printf "%-8s equal %b\n" name eq) dep_rows;
  Printf.printf "outputs bit-identical        : %b\n%!" (all_equal dep_rows);
  header "Jobs determinism: grids and journal at jobs=1 vs jobs=4";
  let (jobs_outs_eq, jobs_journal_eq) as jobs_eq = jobs_determinism () in
  Printf.printf "outputs equal %b, journal equal %b\n%!" jobs_outs_eq jobs_journal_eq;
  header "Degree-N temporal blocking: chosen degrees and DRAM traffic";
  let temporal_rows = temporal_deep_rows () in
  List.iter
    (fun (name, tile, degree, reduction, speedup) ->
      Printf.printf
        "%-14s chosen (%dx%d)  DRAM/step %.2fx lower  per-sweep %.2fx\n%!" name
        tile degree reduction speedup)
    temporal_rows;
  header "Blocked execution vs ping-pong: bit-exactness on the suite";
  let temporal_eq = temporal_equal_rows () in
  List.iter
    (fun (name, eq) -> Printf.printf "%-14s blocked outputs equal %b\n%!" name eq)
    temporal_eq;
  write_exec_json exec_rows dep_rows jobs_eq temporal_rows temporal_eq

(* Hidden smoke variant (`make perf-smoke`): one suite program through
   both executors, split vs the point-wise interpreter, hard assertions
   on output equality and on the interior actually being exercised. *)
let exec_smoke () =
  header "exec smoke: split vs interpreter on 7pt-smoother";
  let prog = (Suite.at_size 12 (Suite.find "7pt-smoother")).prog in
  let outs schedule =
    let reference, blocks = exec_run ~schedule prog in
    reference @ blocks
  in
  let m_int = Artemis.Metrics.counter "exec.interior_points" in
  let before = Artemis.Metrics.counter_value m_int in
  let split = outs Artemis.Eval.Rows in
  let interior = Artemis.Metrics.counter_value m_int -. before in
  let interp = outs Artemis.Eval.Interpret in
  let equal = outputs_equal split interp in
  Printf.printf "outputs identical %b; interior points swept %.0f\n%!" equal interior;
  if not equal then begin
    prerr_endline "exec-smoke FAILED: split outputs differ from the interpreter";
    exit 1
  end;
  if interior <= 0.0 then begin
    prerr_endline "exec-smoke FAILED: split path never took the interior fast path";
    exit 1
  end

(* Hidden smoke variant (`make tb-smoke`): degree-4 blocked execution of
   the 7-point smoother must match the plain ping-pong schedule bit for
   bit; its streamed launches must sweep interior rows with no guarded
   point and match the point-wise interpreter bit for bit; and deep
   tuning with the temporal dimension enabled must actually choose a
   degree above 1 with lower modeled per-step DRAM traffic. *)
let tb_smoke () =
  header "temporal smoke: blocked exactness and degree selection (7pt-smoother)";
  let b = Suite.find "7pt-smoother" in
  let run = configured b ~size:16 in
  let equal = temporal_blocked_equal run ~degree:4 in
  Printf.printf "blocked outputs identical %b\n%!" equal;
  if not equal then begin
    prerr_endline
      "tb-smoke FAILED: blocked execution differs from the ping-pong schedule";
    exit 1
  end;
  let rows_equal, interior, guarded = temporal_rows_vs_interpreter run ~degree:4 in
  Printf.printf
    "streamed rows identical to the interpreter %b; interior points swept %.0f, \
     guarded %.0f\n%!"
    rows_equal interior guarded;
  if not rows_equal then begin
    prerr_endline
      "tb-smoke FAILED: blocked rows differ from the blocked interpreter run";
    exit 1
  end;
  if guarded <> 0.0 then begin
    prerr_endline "tb-smoke FAILED: the streamed traversal swept guarded points";
    exit 1
  end;
  if interior <= 0.0 then begin
    prerr_endline "tb-smoke FAILED: the streamed traversal swept no interior rows";
    exit 1
  end;
  let dr = Artemis.deep_tune ~max_tile:2 ~max_degree:4 b.prog in
  match best_version dr with
  | None ->
    prerr_endline "tb-smoke FAILED: deep tuning produced no versions";
    exit 1
  | Some v ->
    let x = float_of_int v.time_tile in
    let steps = float_of_int (Artemis.Deep.steps_covered v) in
    let reduction =
      v.record.phase1_best.counters.C.dram_bytes /. x
      /. Float.max (v.record.best.counters.C.dram_bytes /. steps) 1.0
    in
    Printf.printf "chosen version (%dx%d), DRAM/step %.2fx lower\n%!" v.time_tile
      v.degree reduction;
    if v.degree <= 1 then begin
      prerr_endline "tb-smoke FAILED: the tuner never chose a temporal degree > 1";
      exit 1
    end;
    if reduction <= 1.0 then begin
      prerr_endline "tb-smoke FAILED: blocking did not lower modeled DRAM traffic";
      exit 1
    end

(* Hidden smoke variant (`make wavefront-smoke`): one small Gauss-Seidel
   case, wavefront schedule vs the point-wise interpreter, hard
   assertions on bit-equality and on the wavefront path actually being
   taken. *)
let wavefront_smoke () =
  header "wavefront smoke: wavefront vs point-wise interpreter on gs2d";
  let prog = Artemis.parse_string (gs2d_src ~n:64 ~m:64) in
  let m_wf = Artemis.Metrics.counter "exec.wavefront_points" in
  let before = Artemis.Metrics.counter_value m_wf in
  let equal = dependent_equal prog ~reps:2 in
  let swept = Artemis.Metrics.counter_value m_wf -. before in
  Printf.printf "outputs identical %b; wavefront points swept %.0f\n%!" equal swept;
  if not equal then begin
    prerr_endline
      "wavefront-smoke FAILED: wavefront outputs differ from the interpreter";
    exit 1
  end;
  if swept <= 0.0 then begin
    prerr_endline "wavefront-smoke FAILED: the wavefront schedule was never taken";
    exit 1
  end

(* ------------------------------------------------------------------ *)

let all_experiments =
  [ ("table1", table1); ("fig4", fig4); ("table2", table2); ("table3", table3);
    ("fission", fission); ("assign", assign); ("fig5", fig5); ("fig6", fig6);
    ("tuningcost", tuningcost); ("ablation", ablation); ("extras", extras);
    ("v100", v100); ("tuner", tuner); ("exec", exec_bench) ]

(* Runnable by explicit name only — not part of the default sweep. *)
let hidden_experiments =
  [ ("tuner-smoke", tuner_smoke); ("exec-smoke", exec_smoke);
    ("wavefront-smoke", wavefront_smoke); ("tb-smoke", tb_smoke);
    ("model-smoke", model_smoke) ]

let () =
  Printf.printf "ARTEMIS reproduction benchmarks — %s\n%!"
    (Format.asprintf "%a" Artemis.Device.pp dev);
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as args) -> args
    | _ -> List.map fst all_experiments
  in
  List.iter
    (fun name ->
      match List.assoc_opt name (all_experiments @ hidden_experiments) with
      | Some f -> f ()
      | None ->
        Printf.eprintf "unknown experiment %s (available: %s)\n" name
          (String.concat ", " (List.map fst all_experiments));
        exit 1)
    requested;
  write_bench_results ()
