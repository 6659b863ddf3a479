(* Optimization report generation: the human-readable account of what
   ARTEMIS did to a kernel — the "textual output" of Section VII turned
   into a structured artifact.  The CLI writes it next to the generated
   CUDA; tests check its stability. *)

module An = Artemis_dsl.Analysis
module I = Artemis_dsl.Instantiate
module Plan = Artemis_ir.Plan
module Estimate = Artemis_ir.Estimate
module Analytic = Artemis_exec.Analytic
module C = Artemis_gpu.Counters
module Timing = Artemis_gpu.Timing

type t = {
  kernel : I.kernel;
  baseline : Analytic.measurement;
  baseline_profile : Classify.profile;
  tuned : Analytic.measurement;
  tuned_profile : Classify.profile;
  hints : Hints.hint list;
  explored : int;
  history : (string * float) list;  (** best-first tuning trace *)
}

let line buf fmt =
  Printf.ksprintf
    (fun s ->
      Buffer.add_string buf s;
      Buffer.add_char buf '\n')
    fmt

let section buf title =
  Buffer.add_string buf "\n";
  Buffer.add_string buf title;
  Buffer.add_string buf "\n";
  Buffer.add_string buf (String.make (String.length title) '-');
  Buffer.add_string buf "\n"

let render_measurement buf label (m : Analytic.measurement) (prof : Classify.profile) =
  section buf label;
  line buf "plan            : %s" (Plan.label m.plan);
  line buf "performance     : %.3f TFLOPS (%.3e s)" m.tflops m.time_s;
  line buf "bottleneck      : %s" (Classify.verdict_to_string prof.verdict);
  line buf "OI dram/tex/shm : %.2f / %.2f / %.2f (knees %.2f / %.2f / %.2f)"
    prof.oi_dram prof.oi_tex prof.oi_shm prof.knee_dram prof.knee_tex prof.knee_shm;
  line buf "occupancy       : %.3f (%d blocks/SM, limited by %s)"
    m.resources.occupancy.occupancy m.resources.occupancy.blocks_per_sm
    (Artemis_gpu.Occupancy.limiter_to_string m.resources.occupancy.limiter);
  line buf "registers       : %d estimated, %d effective%s"
    m.resources.regs_per_thread m.resources.effective_regs
    (if m.resources.spilled_doubles > 0 then
       Printf.sprintf " (%d doubles spilled)" m.resources.spilled_doubles
     else " (spill-free)");
  line buf "shared memory   : %d B/block" m.resources.shared_per_block;
  line buf "redundancy      : %.3fx recomputation from overlapped tiling"
    (C.redundancy m.counters);
  line buf "timing pipes    : compute %.2e, dram %.2e, tex %.2e, shm %.2e, sync %.2e s"
    m.breakdown.t_compute m.breakdown.t_dram m.breakdown.t_tex m.breakdown.t_shm
    m.breakdown.t_sync

(** Render the full report as text. *)
let render (r : t) =
  let buf = Buffer.create 2048 in
  let k = r.kernel in
  line buf "ARTEMIS optimization report — kernel %s" k.kname;
  section buf "stencil";
  line buf "domain          : %s"
    (String.concat " x " (Array.to_list (Array.map string_of_int k.domain)));
  line buf "statements      : %d" (List.length k.body);
  line buf "stencil order   : %d" (An.stencil_order k);
  line buf "flops per point : %d" (An.flops_per_point k);
  line buf "IO arrays       : %d" (An.io_array_count k);
  line buf "theoretical OI  : %.3f flops/byte" (An.theoretical_oi k);
  line buf "recompute halo  : %d" (Artemis_ir.Kernel_facts.of_kernel k).recompute_halo;
  render_measurement buf "baseline (from pragma)" r.baseline r.baseline_profile;
  render_measurement buf "tuned" r.tuned r.tuned_profile;
  section buf "tuning";
  line buf "configurations measured : %d" r.explored;
  line buf "speedup over baseline   : %.2fx"
    (if r.baseline.tflops > 0.0 then r.tuned.tflops /. r.baseline.tflops else 0.0);
  (match r.history with
   | [] -> ()
   | history ->
     line buf "top configurations:" ;
     List.iteri
       (fun i (label, tflops) ->
         if i < 8 then line buf "  %5.3f TFLOPS  %s" tflops label)
       history);
  if r.hints <> [] then begin
    section buf "hints";
    List.iter
      (fun (h : Hints.hint) ->
        line buf "[%s] %s"
          (match h.severity with `Info -> "info" | `Advice -> "advice")
          h.text)
      r.hints
  end;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* JSON serialization                                                  *)
(* ------------------------------------------------------------------ *)

module Json = Artemis_obs.Json

let json_counters (c : C.t) =
  Json.Obj
    [ ("useful_flops", Json.Float c.useful_flops);
      ("total_flops", Json.Float c.total_flops);
      ("dram_bytes", Json.Float c.dram_bytes);
      ("tex_bytes", Json.Float c.tex_bytes);
      ("shm_bytes", Json.Float c.shm_bytes);
      ("gld_transactions", Json.Float c.gld_transactions);
      ("gst_transactions", Json.Float c.gst_transactions);
      ("shm_ld", Json.Float c.shm_ld); ("shm_st", Json.Float c.shm_st);
      ("spill_bytes", Json.Float c.spill_bytes); ("syncs", Json.Float c.syncs);
      ("instructions", Json.Float c.instructions) ]

let json_profile (p : Classify.profile) =
  Json.Obj
    [ ("oi_dram", Json.Float p.oi_dram); ("oi_tex", Json.Float p.oi_tex);
      ("oi_shm", Json.Float p.oi_shm); ("knee_dram", Json.Float p.knee_dram);
      ("knee_tex", Json.Float p.knee_tex); ("knee_shm", Json.Float p.knee_shm);
      ("verdict", Json.Str (Classify.verdict_to_string p.verdict));
      ("verdict_tag", Json.Str (Classify.verdict_tag p.verdict));
      ("achieved_fraction", Json.Float p.achieved_fraction) ]

(** One measurement + its bottleneck profile as a stable JSON object. *)
let json_measurement (m : Analytic.measurement) (prof : Classify.profile) =
  Json.Obj
    [ ("plan", Json.Str (Plan.label m.plan));
      ("tflops", Json.Float m.tflops); ("time_s", Json.Float m.time_s);
      ("counters", json_counters m.counters);
      ("resources",
       Json.Obj
         [ ("regs_per_thread", Json.Int m.resources.regs_per_thread);
           ("effective_regs", Json.Int m.resources.effective_regs);
           ("spilled_doubles", Json.Int m.resources.spilled_doubles);
           ("shared_per_block", Json.Int m.resources.shared_per_block);
           ("occupancy", Json.Float m.resources.occupancy.occupancy);
           ("blocks_per_sm", Json.Int m.resources.occupancy.blocks_per_sm);
           ("limiter",
            Json.Str
              (Artemis_gpu.Occupancy.limiter_to_string m.resources.occupancy.limiter)) ]);
      ("breakdown",
       Json.Obj
         [ ("t_compute", Json.Float m.breakdown.t_compute);
           ("t_dram", Json.Float m.breakdown.t_dram);
           ("t_tex", Json.Float m.breakdown.t_tex);
           ("t_shm", Json.Float m.breakdown.t_shm);
           ("t_sync", Json.Float m.breakdown.t_sync);
           ("t_total", Json.Float m.breakdown.t_total) ]);
      ("profile", json_profile prof) ]

(** The full report as JSON: kernel facts, baseline and tuned
    measurements with their profiles, hints, and the complete tuning
    history.  Field names are part of the CLI contract ([--report-json])
    and covered by a schema-stability test. *)
let to_json (r : t) =
  let k = r.kernel in
  Json.Obj
    [ ("schema_version", Json.Int 1);
      ("kernel",
       Json.Obj
         [ ("name", Json.Str k.kname);
           ("domain", Json.List (Array.to_list (Array.map (fun d -> Json.Int d) k.domain)));
           ("statements", Json.Int (List.length k.body));
           ("stencil_order", Json.Int (An.stencil_order k));
           ("flops_per_point", Json.Int (An.flops_per_point k));
           ("io_arrays", Json.Int (An.io_array_count k));
           ("theoretical_oi", Json.Float (An.theoretical_oi k));
           ("recompute_halo", Json.Int (Artemis_ir.Kernel_facts.of_kernel k).recompute_halo) ]);
      ("baseline", json_measurement r.baseline r.baseline_profile);
      ("tuned", json_measurement r.tuned r.tuned_profile);
      ("speedup",
       Json.Float
         (if r.baseline.tflops > 0.0 then r.tuned.tflops /. r.baseline.tflops else 0.0));
      ("explored", Json.Int r.explored);
      ("history",
       Json.List
         (List.map
            (fun (label, tflops) ->
              Json.Obj [ ("plan", Json.Str label); ("tflops", Json.Float tflops) ])
            r.history));
      ("hints",
       Json.List
         (List.map
            (fun (h : Hints.hint) ->
              Json.Obj
                [ ("severity",
                   Json.Str (match h.severity with `Info -> "info" | `Advice -> "advice"));
                  ("text", Json.Str h.text) ])
            r.hints)) ]

let render_json (r : t) = Json.to_string ~indent:true (to_json r)
