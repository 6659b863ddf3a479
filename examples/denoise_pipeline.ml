(* CDSC denoise: a multi-statement image-processing DAG (paper, Table I).

     dune exec examples/denoise_pipeline.exe

   The diffusion-coefficient field g is produced and consumed at offsets
   inside one kernel — the producer-consumer pattern image pipelines
   fuse.  This example shows the analysis a user cannot easily do by
   hand: the recomputation halo the fusion implies, the bottleneck
   profile at each staging choice, the profiler's guideline decisions,
   and a data-level verification of the fused execution. *)

module O = Artemis.Options

let () =
  let b = Artemis.Suite.find "denoise" in
  let k = List.hd (Artemis.Suite.kernels b) in

  (* The DAG structure. *)
  Printf.printf "denoise body: %d statements, %d FLOPs/point, order %d\n"
    (List.length k.Artemis.Instantiate.body)
    (Artemis.Analysis.flops_per_point k)
    (Artemis.Analysis.stencil_order k);
  Printf.printf "recomputation halo of the fused DAG: %d point(s)\n\n"
    (Artemis.Kernel_facts.of_kernel k).recompute_halo;

  (* Profile three staging choices. *)
  List.iter
    (fun (name, opts) ->
      match Artemis_exec.Analytic.try_measure (Artemis.Lower.lower Artemis.Device.p100 k opts) with
      | Some m ->
        let prof =
          Artemis.Classify.classify Artemis.Device.p100 m.counters ~time_s:m.time_s
        in
        Printf.printf "%-22s %6.3f TFLOPS  OI(dram/tex/shm) %.2f/%.2f/%.2f  [%s]\n"
          name m.tflops
          (Artemis.Counters.oi_dram m.counters)
          (Artemis.Counters.oi_tex m.counters)
          (Artemis.Counters.oi_shm m.counters)
          (Artemis.Classify.verdict_to_string prof.verdict)
      | None -> Printf.printf "%-22s (not launchable)\n" name)
    [ ("global tiled", O.global_tiled); ("global stream", O.global_stream);
      ("shared stream", O.default) ];

  (* The full driver, with hints. *)
  let r = Artemis.optimize_kernel ~iterative:true k in
  Printf.printf "\ntuned: %.3f TFLOPS  %s\n" r.tuned.tflops
    (Artemis.Plan.label r.tuned.plan);
  List.iter
    (fun (h : Artemis.Hints.hint) -> Printf.printf "hint: %s\n" h.text)
    r.hints;

  (* Verify the 12-iteration pipeline end to end on a 14^3 grid. *)
  let small = Artemis.Suite.at_size 14 b in
  let sched = Artemis.Instantiate.schedule small.prog in
  let scalars = Artemis.Reference.scalars_of_program small.prog in
  let ref_store = Artemis.Reference.store_of_program small.prog in
  Artemis.Reference.run_schedule ref_store ~scalars sched;
  let store = Artemis.Reference.store_of_program small.prog in
  let plan_of kk = Artemis.Lower.lower Artemis.Device.p100 kk O.default in
  let steps = Artemis.Runner.configure ~plan_of sched in
  Artemis.Runner.run_schedule steps store ~scalars;
  let m = Artemis.Runner.measure_schedule steps in
  let diff =
    Artemis_exec.Grid.max_abs_diff
      (Artemis.Reference.find_array ref_store "out")
      (Artemis.Reference.find_array store "out")
  in
  Printf.printf
    "\n12-iteration pipeline on 14^3: %d launches, %.0f shared loads, max |diff| vs \
     reference = %g\n"
    m.launches m.counters.shm_ld diff
