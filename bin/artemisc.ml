(* artemisc — the ARTEMIS command-line driver.

   Subcommands mirror the Section VII flow:

     artemisc compile  prog.stc     # baseline CUDA from the DSL pragma
     artemisc optimize prog.stc     # profile -> tune -> hints -> CUDA
     artemisc deep     prog.stc     # deep tuning of an iterative program
     artemisc check    prog.stc     # parse + semantic check only
     artemisc lint     prog.stc     # whole-pipeline diagnostics (docs/LINT.md)
     artemisc analyze  prog.stc     # affine footprints + dependence verdicts
     artemisc bench <name>          # run one suite benchmark end to end
     artemisc explain prog.stc      # plan provenance: why this plan won
     artemisc bench-diff OLD NEW    # regression gate over bench artifacts
     artemisc fuzz --seed N         # differential fuzzing of the pipeline
     artemisc trace-info t.json     # summarize a recorded trace

   Every subcommand accepts --trace FILE (or ARTEMIS_TRACE=FILE) to
   record a Chrome trace-event JSON of the run; optimize and deep also
   take --report-json FILE for the structured optimization report. *)

open Cmdliner
module Json = Artemis.Json
module Trace = Artemis.Trace

(* The exit statuses every subcommand documents; the entry point at the
   bottom maps evaluation results onto them. *)
let exits =
  [ Cmd.Exit.info Cmd.Exit.ok ~doc:"on success.";
    Cmd.Exit.info 1
      ~doc:"on a command-line error, malformed input, a check that finds \
            errors or a failed write.";
    Cmd.Exit.info Cmd.Exit.internal_error ~doc:"on an unexpected internal error (a bug)." ]

(** Every diagnostic of a rejected program, located in [path]. *)
let rejected path ds =
  `Error (false, String.concat "\n" (List.map (Artemis.Diagnostic.render path) ds))

(** The one reader: [k] gets [Frontend.program] on [path]'s text, a
    checked program or its semantic diagnostics.  An unreadable file and
    a lexical or syntax error end the command (exit status 1). *)
let read_program path k =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> `Error (false, msg)
  | src -> (
    match Artemis.Frontend.program src with
    | Error ds
      when List.exists (fun (d : Artemis.Diagnostic.t) -> d.phase <> Semantic) ds ->
      rejected path ds
    | checked -> k checked)

(** [read_program] for the commands that need a checked program. *)
let with_program path k =
  read_program path (function Ok prog -> k prog | Error ds -> rejected path ds)

let path_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"PROG.stc"
         ~doc:"Stencil DSL program")

let out_arg =
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
         ~doc:"Write generated CUDA to $(docv) instead of stdout")

let trace_arg =
  let env =
    Cmd.Env.info "ARTEMIS_TRACE"
      ~doc:"Trace output file, like $(b,--trace); the flag wins when both are set."
  in
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE" ~env
           ~doc:"Record a Chrome trace-event JSON of this run to $(docv) \
                 (open in chrome://tracing or ui.perfetto.dev)")

let report_json_arg =
  Arg.(value & opt (some string) None
       & info [ "report-json" ] ~docv:"FILE"
           ~doc:"Write the structured optimization report as JSON to $(docv)")

let jobs_arg =
  let env =
    Cmd.Env.info "ARTEMIS_JOBS"
      ~doc:"Worker-domain count, like $(b,--jobs); the flag wins when both are set."
  in
  Arg.(value & opt (some int) None
       & info [ "j"; "jobs" ] ~docv:"N" ~env
           ~doc:"Fan measurement out over $(docv) domains (1 = serial, the \
                 default; 0 = one per core).  Results are bit-identical at \
                 any setting.")

let set_jobs jobs = Option.iter Artemis.Pool.set_jobs jobs

let max_degree_arg =
  Arg.(value & opt int 1
       & info [ "max-degree" ] ~docv:"N"
           ~doc:"Let the tuner explore degree-N temporal blocking of the \
                 ping-pong time loop up to degree $(docv) (powers of two; \
                 default 1 = off)")

let device_conv =
  let parse s =
    match Artemis.Device.find s with
    | Some d -> Ok d
    | None ->
      Error
        (`Msg
           (Printf.sprintf "unknown device %S (known: %s)" s
              (String.concat ", " (List.map fst Artemis.Device.registry))))
  in
  let print fmt (d : Artemis.Device.t) = Format.pp_print_string fmt d.name in
  Arg.conv (parse, print)

let device_arg =
  let env =
    Cmd.Env.info "ARTEMIS_DEVICE"
      ~doc:"Target device, like $(b,--device); the flag wins when both are set."
  in
  Arg.(value & opt device_conv Artemis.Device.p100
       & info [ "device" ] ~docv:"NAME" ~env
           ~doc:"Target device from the registry (p100, v100, a100, h100; \
                 default p100).  Picks the machine model every plan is \
                 lowered, validated, and timed against.")

(* A keep percentage must be a finite number above 0: NaN, 0 or a
   negative value would silently measure almost nothing. *)
let prerank_conv =
  let parse s =
    match float_of_string_opt s with
    | Some p when Float.is_finite p && p > 0.0 -> Ok p
    | Some _ | None ->
      Error (`Msg (Printf.sprintf "%S is not a finite percentage above 0" s))
  in
  Arg.conv (parse, fun fmt p -> Format.fprintf fmt "%g" p)

let prerank_arg =
  Arg.(value & opt prerank_conv Artemis.Hierarchical.default_prerank_keep
       & info [ "prerank-keep" ] ~docv:"PCT"
           ~doc:"Measure only the top $(docv)% of each tuning phase's \
                 candidates as ranked by the measurement-free one-block \
                 sketch (docs/MODEL.md); 100 or more disables pre-ranking.")

(** The ping-pong (out, inp) pair of a program's time loop, if any — what
    temporal blocking needs to attach to a plan. *)
let pingpong_pair_of prog =
  List.find_map
    (fun item ->
      Option.map
        (fun (_, _, out, inp) -> (out, inp))
        (Artemis.Fusion.pingpong_of_item item))
    (Artemis.Instantiate.schedule prog)

(* Deep tuning needs a ping-pong time loop; a program without one is
   rejected, located at [label], before any tuning. *)
let no_time_loop label = `Error (false, label ^ ": program has no ping-pong time loop")

(* An integer flag with a floor: a value below it is a usage error
   naming the flag (exit 1), not a failure deep inside the run. *)
let int_from lo =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo -> Ok n
    | Some _ | None -> Error (`Msg (Printf.sprintf "%S is not an integer >= %d" s lo))
  in
  Arg.conv (parse, Format.pp_print_int)

let cache_dir_arg =
  Arg.(value & opt (some string) None
       & info [ "cache-dir" ] ~docv:"DIR"
           ~doc:"Persist measurement-cache entries under $(docv), so repeated \
                 runs skip already-measured configurations")

let set_cache_dir dir = Option.iter Artemis.Measure_cache.set_dir dir

(** Write [text] to [path], closing the channel even on failure, and
    surfacing I/O errors as a cmdliner result instead of an uncaught
    [Sys_error]. *)
let write_file path text =
  match open_out path with
  | exception Sys_error msg -> `Error (false, msg)
  | oc -> (
    match
      Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
          output_string oc text)
    with
    | () ->
      Printf.printf "wrote %s\n" path;
      `Ok ()
    | exception Sys_error msg -> `Error (false, msg))

let write_output out text =
  match out with
  | Some path -> write_file path text
  | None ->
    print_string text;
    `Ok ()

(** Sequence cmdliner results: run [g] only when [f] succeeded. *)
let ( >>? ) f g = match f with `Ok () -> g () | `Error _ as e -> e

(** Run [f] with tracing sunk to [trace] (when given).  The trace file is
    written even when [f] fails, so aborted runs stay inspectable. *)
let with_trace trace f =
  match trace with
  | None -> f ()
  | Some path ->
    Trace.start ();
    let result = try f () with e -> Trace.stop (); raise e in
    Trace.stop ();
    (match Trace.write path with
     | () ->
       Printf.printf "wrote %s (%d trace events)\n" path (Trace.event_count ());
       result
     | exception Sys_error msg -> (
       match result with
       | `Ok () -> `Error (false, msg)
       | other ->
         (* The command already failed; keep its error as the outcome but
            don't lose the trace failure — aborted runs that also lost
            their trace must stay diagnosable. *)
         Printf.eprintf "artemisc: warning: could not write trace %s: %s\n%!"
           path msg;
         other))

(** Read and parse a JSON artifact, surfacing problems as cmdliner
    errors. *)
let read_json path =
  match
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> `Error (false, msg)
  | src -> (
    match Json.parse src with
    | exception Json.Parse_error msg ->
      `Error (false, Printf.sprintf "%s: invalid JSON: %s" path msg)
    | doc -> `Ok doc)

(** Distinct kernels of the schedule, first-launch order — the set lint
    and explain iterate over. *)
let kernels_of prog = Artemis.Instantiate.kernels (Artemis.Instantiate.schedule prog)

(** Findings for one program — shared by [lint] and [analyze] so the two
    commands agree byte-for-byte on which findings a program carries (and
    therefore on their exit status: non-zero iff any Error-level
    finding).  Semantic diagnostics become A001 findings at [name], with
    nothing instantiated; with [~plan] the baseline pragma plan of every
    scheduled kernel is linted too. *)
let findings_of ~device ~plan name = function
  | Error ds -> Artemis.Lint.semantic_findings ~location:name ds
  | Ok prog ->
    Artemis.Lint.lint_program prog
    @ (if plan then
         List.concat_map
           (fun k ->
             Artemis.Lint.lint_plan
               (Artemis.Lower.lower_with_pragma device k
                  Artemis.Options.default))
           (kernels_of prog)
       else [])

(* ---------------- check ---------------- *)

let check_cmd =
  let run trace path =
    with_trace trace @@ fun () ->
    read_program path @@ function
    | Ok prog ->
      let n_kernels =
        Artemis.Instantiate.launch_count (Artemis.Instantiate.schedule prog)
      in
      Printf.printf "%s: OK (%d stencil(s), %d launch(es))\n" path
        (List.length prog.stencils) n_kernels;
      `Ok ()
    | Error ds ->
      List.iter (fun d -> print_endline (Artemis.Diagnostic.render path d)) ds;
      `Error (false, Printf.sprintf "%d semantic error(s)" (List.length ds))
  in
  Cmd.v
    (Cmd.info "check" ~exits
       ~doc:"Parse and semantically check a DSL program (reports every violation)")
    Term.(ret (const run $ trace_arg $ path_arg))

(* ---------------- lint ---------------- *)

let lint_cmd =
  let path_opt_arg =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"PROG.stc"
           ~doc:"Stencil DSL program (omit with $(b,--suite))")
  in
  let plan_arg =
    Arg.(value & flag & info [ "plan" ]
           ~doc:"Also lint the baseline pragma plan of every scheduled kernel")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit findings as stable JSON instead of text")
  in
  let suite_arg =
    Arg.(value & flag & info [ "suite" ]
           ~doc:"Lint every Table-I suite benchmark instead of one file")
  in
  let emit_and_status json findings =
    if json then
      print_endline
        (Json.to_string ~indent:true (Artemis.Lint.findings_to_json findings))
    else print_string (Artemis.Lint.report findings);
    match Artemis.Lint.errors findings with
    | [] -> `Ok ()
    | es -> `Error (false, Printf.sprintf "%d lint error(s)" (List.length es))
  in
  let run trace device path plan json suite =
    with_trace trace @@ fun () ->
    if suite then
      let findings =
        List.concat_map
          (fun (b : Artemis.Suite.t) -> findings_of ~device ~plan b.name (Ok b.prog))
          Artemis.Suite.all
      in
      (if (not json) && findings = [] then
         Printf.printf "suite: %d benchmark(s), " (List.length Artemis.Suite.all));
      emit_and_status json findings
    else
      match path with
      | None -> `Error (true, "PROG.stc required unless --suite is given")
      | Some path ->
        read_program path (fun checked ->
            emit_and_status json (findings_of ~device ~plan path checked))
  in
  Cmd.v
    (Cmd.info "lint" ~exits
       ~doc:"Whole-pipeline diagnostics: hazards, bounds, liveness, and \
             resource feasibility (codes catalogued in docs/LINT.md); exits \
             non-zero when any Error-level finding is reported")
    Term.(ret (const run $ trace_arg $ device_arg $ path_opt_arg $ plan_arg
               $ json_arg $ suite_arg))

(* ---------------- analyze ---------------- *)

(** Render the affine dataflow engine's view of a program: symbolic
    per-statement footprints, concrete per-kernel footprints, dependence
    verdicts with the chosen wavefront hyperplane, and the lint findings
    those facts back (A7xx).  Shares [findings_of] with [lint], so the two commands
    always agree on exit status. *)
let analyze_cmd =
  let module St = Artemis.Static in
  let path_opt_arg =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"PROG.stc"
           ~doc:"Stencil DSL program (omit with $(b,--suite) or \
                 $(b,--fuzz-corpus))")
  in
  let plan_arg =
    Arg.(value & flag & info [ "plan" ]
           ~doc:"Also lint the baseline pragma plan of every scheduled kernel")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit the analysis as stable JSON instead of text")
  in
  let suite_arg =
    Arg.(value & flag & info [ "suite" ]
           ~doc:"Analyze every Table-I suite benchmark instead of one file")
  in
  let fuzz_arg =
    Arg.(value & opt (some int) None
         & info [ "fuzz-corpus" ] ~docv:"SEED"
             ~doc:"Analyze the deterministic fuzz corpus for $(docv) instead \
                   of one file (the oracle's invariant 5 checks the same \
                   programs dynamically)")
  in
  let cases_arg =
    Arg.(value & opt int 25 & info [ "cases" ] ~docv:"N"
           ~doc:"Corpus size for $(b,--fuzz-corpus) (default 25)")
  in
  let vec_str v =
    String.concat ", " (List.map string_of_int (Array.to_list v))
  in
  let delta_str d = Printf.sprintf "(%s)" (vec_str d) in
  (* Per-statement facts of one instantiated kernel: write target,
     in-bounds footprint over the domain, and the self-dependence
     verdict. *)
  let kernel_stmts (k : Artemis.Instantiate.kernel) =
    List.mapi
      (fun si (st, (target, _, fp)) -> (si, target, fp, St.self_dependences ~iters:k.iters st))
      (List.combine k.body (St.domain_footprints k))
  in
  let dep_str rank = function
    | St.No_dep -> "no self-dependence"
    | St.Unknown -> "position-dependent self-dependence (not uniform)"
    | St.Uniform ds ->
      let hp =
        match St.hyperplane ~rank ds with
        | Some vec -> Printf.sprintf "hyperplane (%s)" (vec_str vec)
        | None -> "no legal constant hyperplane"
      in
      Printf.sprintf "distances {%s}; %s; %s"
        (String.concat " " (List.map delta_str ds))
        (if St.band_safe ds then "band-safe" else "mixed-sign")
        hp
  in
  let render_program b name prog =
    Printf.bprintf b "%s: affine dataflow analysis\n" name;
    (match St.symbolic_footprints prog with
     | [] -> ()
     | syms ->
       Buffer.add_string b "  symbolic footprints (in the extent parameters):\n";
       List.iter
         (fun (s : St.sym_stmt) ->
           Printf.bprintf b "    %s stmt %d writes %s: %s\n" s.ss_stencil
             s.ss_stmt s.ss_write
             (String.concat ", "
                (List.mapi
                   (fun d it ->
                     Printf.sprintf "%s in %s" it
                       (St.sym_bound_to_string s.ss_bounds.(d)))
                   s.ss_iters)))
         syms);
    List.iter
      (fun (k : Artemis.Instantiate.kernel) ->
        let rank = Array.length k.domain in
        Printf.bprintf b "  kernel %s (domain %s):\n" k.kname (vec_str k.domain);
        List.iter
          (fun (si, target, fp, dep) ->
            Printf.bprintf b "    stmt %d writes %s: footprint %s (%d of %d \
                              points); %s\n"
              si target (St.box_to_string fp) (St.box_volume fp)
              (Array.fold_left (fun a n -> a * n) 1 k.domain)
              (dep_str rank dep))
          (kernel_stmts k))
      (kernels_of prog)
  in
  let box_json fp =
    Json.List
      (Array.to_list
         (Array.map (fun (lo, hi) -> Json.List [ Json.Int lo; Json.Int hi ]) fp))
  in
  let dep_json rank = function
    | St.No_dep -> Json.Str "none"
    | St.Unknown -> Json.Str "unknown"
    | St.Uniform ds ->
      let hp =
        match St.hyperplane ~rank ds with
        | Some vec ->
          [ ("hyperplane", Json.List (Array.to_list (Array.map (fun c -> Json.Int c) vec))) ]
        | None -> []
      in
      Json.Obj
        (( "distances",
           Json.List
             (List.map
                (fun d ->
                  Json.List
                    (Array.to_list (Array.map (fun c -> Json.Int c) d)))
                ds) )
         :: ("band_safe", Json.Bool (St.band_safe ds))
         :: hp)
  in
  (* A rejected program has no footprints or kernels to show: its A001
     findings say why. *)
  let program_json name checked findings =
    let symbolic, kernels =
      match checked with
      | Ok prog -> (St.symbolic_footprints prog, kernels_of prog)
      | Error _ -> ([], [])
    in
    Json.Obj
      [ ("program", Json.Str name);
        ( "symbolic",
          Json.List
            (List.map
               (fun (s : St.sym_stmt) ->
                 Json.Obj
                   [ ("stencil", Json.Str s.ss_stencil);
                     ("stmt", Json.Int s.ss_stmt);
                     ("writes", Json.Str s.ss_write);
                     ( "bounds",
                       Json.Obj
                         (List.mapi
                            (fun d it ->
                              (it, Json.Str
                                     (St.sym_bound_to_string s.ss_bounds.(d))))
                            s.ss_iters) ) ])
               symbolic) );
        ( "kernels",
          Json.List
            (List.map
               (fun (k : Artemis.Instantiate.kernel) ->
                 let rank = Array.length k.domain in
                 Json.Obj
                   [ ("kernel", Json.Str k.kname);
                     ( "domain",
                       Json.List
                         (Array.to_list
                            (Array.map (fun n -> Json.Int n) k.domain)) );
                     ( "statements",
                       Json.List
                         (List.map
                            (fun (si, target, fp, dep) ->
                              Json.Obj
                                [ ("stmt", Json.Int si);
                                  ("writes", Json.Str target);
                                  ("footprint", box_json fp);
                                  ("footprint_points",
                                   Json.Int (St.box_volume fp));
                                  ("dependence", dep_json rank dep) ])
                            (kernel_stmts k)) ) ])
               kernels) );
        ("findings", Artemis.Lint.findings_to_json findings) ]
  in
  let analyze ~device ~plan ~json programs =
    let analyzed =
      List.map
        (fun (name, checked) -> (name, checked, findings_of ~device ~plan name checked))
        programs
    in
    let findings = List.concat_map (fun (_, _, fs) -> fs) analyzed in
    (if json then
       print_endline
         (Json.to_string ~indent:true
            (Json.Obj
               [ ("schema_version", Json.Int 1);
                 ( "programs",
                   Json.List
                     (List.map
                        (fun (name, checked, fs) -> program_json name checked fs)
                        analyzed) ) ]))
     else begin
       let b = Buffer.create 4096 in
       List.iter
         (function
           | name, Ok prog, _ -> render_program b name prog
           | _, Error _, _ -> ())
         analyzed;
       Printf.bprintf b "findings:\n%s" (Artemis.Lint.report findings);
       print_string (Buffer.contents b)
     end);
    match Artemis.Lint.errors findings with
    | [] -> `Ok ()
    | es -> `Error (false, Printf.sprintf "%d lint error(s)" (List.length es))
  in
  let run trace device path plan json suite fuzz cases =
    with_trace trace @@ fun () ->
    let analyze = analyze ~device ~plan ~json in
    if suite then
      analyze
        (List.map (fun (b : Artemis.Suite.t) -> (b.name, Ok b.prog)) Artemis.Suite.all)
    else
      match (fuzz, path) with
      | Some seed, _ ->
        analyze
          (List.init cases (fun index ->
               ( Printf.sprintf "fuzz-seed%d-case%d" seed index,
                 Ok (Artemis_verify.Gen.generate ~seed ~index).prog )))
      | None, Some path -> read_program path (fun checked -> analyze [ (path, checked) ])
      | None, None ->
        `Error (true, "PROG.stc required unless --suite or --fuzz-corpus is given")
  in
  Cmd.v
    (Cmd.info "analyze" ~exits
       ~doc:"Affine dataflow analysis: per-statement footprints (symbolic and \
             concrete), exact dependence distances with their wavefront \
             hyperplane, and the A7xx findings they back (docs/ANALYSIS.md); \
             exit status agrees with $(b,lint)")
    Term.(ret (const run $ trace_arg $ device_arg $ path_opt_arg $ plan_arg
               $ json_arg $ suite_arg $ fuzz_arg $ cases_arg))

(* ---------------- compile ---------------- *)

let compile_cmd =
  let run trace device path out =
    with_trace trace @@ fun () ->
    with_program path @@ fun prog ->
    let k = Artemis.first_kernel prog in
    let plan = Artemis.Lower.lower_with_pragma device k Artemis.Options.default in
    match Artemis.Validate.validate plan with
    | Ok v -> write_output out (Artemis.Cuda.emit (v :> Artemis.Plan.t))
    | Error vs ->
      prerr_string (Artemis.Lint.report (List.map (Artemis.Lint.launch_finding plan) vs));
      `Error (false, Printf.sprintf "%s: the pragma's plan cannot launch" path)
  in
  Cmd.v
    (Cmd.info "compile" ~exits
       ~doc:"Generate the baseline CUDA version from the program's pragma")
    Term.(ret (const run $ trace_arg $ device_arg $ path_arg $ out_arg))

(* ---------------- optimize ---------------- *)

let optimize_cmd =
  let iterative =
    Arg.(value & flag & info [ "iterative" ]
           ~doc:"Apply the fusion guideline for time-iterated stencils")
  in
  let run trace jobs cache_dir device prerank path out iterative max_degree
      report_json =
    with_trace trace @@ fun () ->
    set_jobs jobs;
    set_cache_dir cache_dir;
    with_program path @@ fun prog ->
    let k = Artemis.first_kernel prog in
    let r =
      Artemis.optimize_kernel ~device ~iterative ~max_degree ~prerank_keep:prerank
        ?pingpong:(if max_degree > 1 then pingpong_pair_of prog else None)
        k
    in
    Printf.printf "baseline : %.3f TFLOPS  [%s]\n" r.baseline.tflops
      (Artemis.Classify.verdict_to_string r.baseline_profile.verdict);
    Printf.printf "tuned    : %.3f TFLOPS  %s\n" r.tuned.tflops
      (Artemis.Plan.label r.tuned.plan);
    Printf.printf "explored : %d configurations\n" r.explored;
    List.iter
      (fun (h : Artemis.Hints.hint) ->
        Printf.printf "%s: %s\n"
          (match h.severity with `Info -> "info" | `Advice -> "hint")
          h.text)
      r.hints;
    let fission_results =
      List.mapi
        (fun i parts ->
          let name = if i = 0 then "trivial" else "recompute" in
          Printf.printf "fission candidate (%s): %d sub-kernels\n" name
            (List.length parts);
          let dsl = Artemis.Fission.to_dsl k parts in
          let fpath = Printf.sprintf "%s.%s-fission.stc" path name in
          write_file fpath (Artemis.Pretty.program_to_string dsl))
        r.fission_candidates
    in
    List.fold_left ( >>? ) (`Ok ()) (List.map (fun r () -> r) fission_results)
    >>? (fun () -> write_file (path ^ ".report.txt") (Artemis.report_of r))
    >>? (fun () ->
      match report_json with
      | Some jpath -> write_file jpath (Artemis.report_json_of r)
      | None -> `Ok ())
    >>? fun () -> write_output out (Artemis.cuda_of r)
  in
  Cmd.v
    (Cmd.info "optimize" ~exits
       ~doc:"Profile, hierarchically autotune, and emit the best CUDA version")
    Term.(
      ret
        (const run $ trace_arg $ jobs_arg $ cache_dir_arg $ device_arg
         $ prerank_arg $ path_arg $ out_arg $ iterative $ max_degree_arg
         $ report_json_arg))

(* ---------------- deep ---------------- *)

let deep_json (dr : Artemis.deep_result) schedule time =
  Json.Obj
    [ ("schema_version", Json.Int 1);
      ("versions",
       Json.List
         (List.map
            (fun (v : Artemis.Deep.version) ->
              Json.Obj
                [ ("time_tile", Json.Int v.time_tile);
                  ("degree", Json.Int v.degree);
                  ("steps_covered", Json.Int (Artemis.Deep.steps_covered v));
                  ("plan", Json.Str (Artemis.Plan.label v.record.best.plan));
                  ("tflops", Json.Float v.record.best.tflops);
                  ("time_s", Json.Float v.record.best.time_s);
                  ("time_per_sweep", Json.Float v.time_per_sweep);
                  ("verdict",
                   Json.Str (Artemis.Classify.verdict_to_string v.profile.verdict));
                  ("explored", Json.Int v.record.explored) ])
            dr.deep.versions));
      ("cusp", Json.Int dr.deep.cusp);
      ("tipping_point", Json.Int dr.deep.tipping_point);
      ("schedule", Json.List (List.map (fun x -> Json.Int x) schedule));
      ("predicted_time_s", Json.Float time) ]

let deep_cmd =
  let iterations =
    Arg.(value & opt (some (int_from 0)) None & info [ "T"; "iterations" ] ~docv:"T"
           ~doc:"Build the fusion schedule for $(docv) iterations instead of \
                 the program's own count")
  in
  let run trace jobs cache_dir device prerank path iterations max_degree
      report_json =
    with_trace trace @@ fun () ->
    set_jobs jobs;
    set_cache_dir cache_dir;
    with_program path @@ fun prog ->
    if pingpong_pair_of prog = None then no_time_loop path
    else
      let dr = Artemis.deep_tune ~device ~max_degree ~prerank_keep:prerank prog in
      if dr.deep.versions = [] then
        `Error (false, path ^ ": no fusion width of the time loop has a launchable configuration")
      else begin
        List.iter
          (fun (v : Artemis.Deep.version) ->
            Printf.printf "(%dx%d): %.3f TFLOPS  [%s]\n" v.time_tile v.degree
              v.record.best.tflops
              (Artemis.Classify.verdict_to_string v.profile.verdict))
          dr.deep.versions;
        let schedule, time =
          match iterations with
          | Some t -> Artemis.Deep.optimal_schedule dr.deep ~t
          | None -> (dr.schedule, dr.predicted_time)
        in
        Printf.printf "fusion schedule: [%s]  (predicted %.3e s)\n"
          (String.concat "; " (List.map string_of_int schedule))
          time;
        match report_json with
        | Some jpath ->
          write_file jpath (Json.to_string ~indent:true (deep_json dr schedule time))
        | None -> `Ok ()
      end
  in
  Cmd.v
    (Cmd.info "deep" ~exits
       ~doc:"Deep-tune an iterative ping-pong program (Section VI-A)")
    Term.(
      ret
        (const run $ trace_arg $ jobs_arg $ cache_dir_arg $ device_arg
         $ prerank_arg $ path_arg $ iterations $ max_degree_arg
         $ report_json_arg))

(* ---------------- bench ---------------- *)

let bench_cmd =
  let name_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCHMARK"
           ~doc:"Suite benchmark name (see 'artemisc list')")
  in
  let run trace device prerank name =
    with_trace trace @@ fun () ->
    match Artemis.Suite.find name with
    | exception Invalid_argument msg -> `Error (false, msg)
    | b ->
      let ks = Artemis.Suite.kernels b in
      List.iter
        (fun k ->
          let r =
            Artemis.optimize_kernel ~device ~iterative:b.iterative
              ~prerank_keep:prerank k
          in
          Printf.printf "%s: %.3f TFLOPS  %s\n" k.Artemis.Instantiate.kname
            r.tuned.tflops (Artemis.Plan.label r.tuned.plan))
        ks;
      `Ok ()
  in
  Cmd.v (Cmd.info "bench" ~exits ~doc:"Optimize one Table-I benchmark end to end")
    Term.(ret (const run $ trace_arg $ device_arg $ prerank_arg $ name_arg))

let list_cmd =
  let run trace () =
    with_trace trace @@ fun () ->
    List.iter
      (fun (b : Artemis.Suite.t) ->
        Printf.printf "%-14s %s, %d^3%s\n" b.name
          (Artemis.Suite.family_to_string b.family)
          b.domain
          (if b.iterative then Printf.sprintf ", %d iterations" b.time_steps else ""))
      Artemis.Suite.all;
    `Ok ()
  in
  Cmd.v (Cmd.info "list" ~exits ~doc:"List the Table-I benchmarks")
    Term.(ret (const run $ trace_arg $ const ()))

(* ---------------- explain ---------------- *)

let explain_cmd =
  let path_opt_arg =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"PROG.stc"
           ~doc:"Stencil DSL program (omit with $(b,--bench))")
  in
  let bench_arg =
    Arg.(value & opt (some string) None
         & info [ "bench" ] ~docv:"NAME"
             ~doc:"Explain a Table-I suite benchmark instead of a file \
                   (see 'artemisc list')")
  in
  let plan_arg =
    Arg.(value & flag & info [ "plan" ]
           ~doc:"Also report the winning plan's lint findings per kernel")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit the provenance report as stable JSON instead of text")
  in
  let journal_arg =
    Arg.(value & opt (some string) None
         & info [ "journal" ] ~docv:"FILE"
             ~doc:"Also write the raw decision journal as JSONL to $(docv)")
  in
  let deep_flag =
    Arg.(value & flag & info [ "deep" ]
           ~doc:"Also deep-tune the program's ping-pong time loop (iterative \
                 suite benchmarks do this automatically)")
  in
  let max_tile_arg =
    Arg.(value & opt (some (int_from 1)) None
         & info [ "max-tile" ] ~docv:"K"
             ~doc:"Cap deep tuning at time tile $(docv) (default 5)")
  in
  (* The winning plans' lint findings ride along as a "plans" section so
     --plan stays one deterministic document. *)
  let add_plans doc (results : Artemis.result list) =
    let plans =
      List.map
        (fun (r : Artemis.result) ->
          Json.Obj
            [ ("kernel", Json.Str r.kernel.kname);
              ("plan", Json.Str (Artemis.Plan.label r.tuned.plan));
              ( "lint",
                Artemis.Lint.findings_to_json
                  (Artemis.Lint.lint_plan r.tuned.plan) ) ])
        results
    in
    match doc with
    | Json.Obj fields -> Json.Obj (fields @ [ ("plans", Json.List plans) ])
    | other -> other
  in
  let run trace jobs cache_dir device prerank path bench plan json journal
      deep max_tile max_degree =
    with_trace trace @@ fun () ->
    set_jobs jobs;
    set_cache_dir cache_dir;
    let source =
      match (bench, path) with
      | Some _, Some _ -> `Error (false, "give PROG.stc or --bench NAME, not both")
      | None, None -> `Error (true, "PROG.stc required unless --bench is given")
      | Some name, None -> (
        match Artemis.Suite.find name with
        | exception Invalid_argument msg -> `Error (false, msg)
        | b -> `Ok (b.prog, b.name, b.iterative))
      | None, Some p -> with_program p (fun prog -> `Ok (prog, p, false))
    in
    match source with
    | `Error _ as e -> e
    | `Ok (prog, label, _) when deep && pingpong_pair_of prog = None -> no_time_loop label
    | `Ok (prog, label, iterative) -> (
      Artemis.Journal.start ();
      let pair = pingpong_pair_of prog in
      let results =
        List.map
          (fun k ->
            Artemis.optimize_kernel ~device ~iterative ~max_degree
              ~prerank_keep:prerank
              ?pingpong:(if max_degree > 1 then pair else None)
              k)
          (kernels_of prog)
      in
      (* Iterative benchmarks get the Section VI-A flow too, so the
         journal covers the DP decision; --deep demands it. *)
      if (deep || iterative) && pair <> None then
        ignore
          (Artemis.deep_tune ~device ?max_tile ~max_degree ~prerank_keep:prerank prog
            : Artemis.deep_result);
      Artemis.Journal.stop ();
      let events = Artemis.Journal.events () in
      (match journal with
       | None -> `Ok ()
       | Some jpath -> (
         match Artemis.Journal.write jpath with
         | () ->
           Printf.printf "wrote %s (%d journal event(s))\n" jpath
             (Artemis.Journal.event_count ());
           `Ok ()
         | exception Sys_error msg -> `Error (false, msg)))
      >>? fun () ->
      let report = Artemis.Provenance.report ~program:label events in
      let report = if plan then add_plans report results else report in
      if json then print_endline (Json.to_string ~indent:true report)
      else begin
        print_string (Artemis.Provenance.render report);
        if plan then
          List.iter
            (fun (r : Artemis.result) ->
              Printf.printf "\nwinning plan lint (%s):\n"
                r.kernel.Artemis.Instantiate.kname;
              print_string
                (Artemis.Lint.report (Artemis.Lint.lint_plan r.tuned.plan)))
            results
      end;
      `Ok ())
  in
  Cmd.v
    (Cmd.info "explain" ~exits
       ~doc:"Plan provenance from the decision journal: every candidate \
             ranked (won / lost with margin / lint-pruned or \
             static-pruned with code / prerank-pruned), cache economics, \
             and the winner's roofline-style traffic breakdown against the \
             machine model")
    Term.(
      ret
        (const run $ trace_arg $ jobs_arg $ cache_dir_arg $ device_arg
         $ prerank_arg $ path_opt_arg $ bench_arg $ plan_arg $ json_arg
         $ journal_arg $ deep_flag $ max_tile_arg $ max_degree_arg))

(* ---------------- bench-diff ---------------- *)

let bench_diff_cmd =
  let old_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"OLD.json"
           ~doc:"Baseline bench artifact (BENCH_*.json)")
  in
  let new_arg =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"NEW.json"
           ~doc:"Candidate bench artifact to gate")
  in
  let threshold_arg =
    Arg.(value & opt float 10.0
         & info [ "threshold" ] ~docv:"PCT"
             ~doc:"Allowed relative drop on higher-is-better indicators \
                   before the gate fails (default 10)")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit the comparison as stable JSON instead of a table")
  in
  let run old_path new_path threshold json =
    match read_json old_path with
    | `Error _ as e -> e
    | `Ok old_doc -> (
      match read_json new_path with
      | `Error _ as e -> e
      | `Ok new_doc ->
        let r =
          Artemis.Bench_diff.diff ~threshold_pct:threshold ~old_doc ~new_doc ()
        in
        if json then
          print_endline (Json.to_string ~indent:true (Artemis.Bench_diff.to_json r))
        else print_string (Artemis.Bench_diff.render r);
        if Artemis.Bench_diff.passed r then `Ok ()
        else
          `Error
            ( false,
              Printf.sprintf "%d indicator(s) regressed past %.1f%%"
                r.regressions threshold ))
  in
  Cmd.v
    (Cmd.info "bench-diff" ~exits
       ~doc:"Gate a bench artifact against a baseline: compares the \
             deterministic indicators (TFLOP/s, speedups, equality flags) \
             and exits non-zero on regressions past the threshold")
    Term.(ret (const run $ old_arg $ new_arg $ threshold_arg $ json_arg))

(* ---------------- fuzz ---------------- *)

let fuzz_cmd =
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N"
           ~doc:"PRNG seed; the run is a pure function of it")
  in
  let cases_arg =
    Arg.(value & opt int 100 & info [ "cases" ] ~docv:"N"
           ~doc:"Number of random programs to generate")
  in
  let dump_arg =
    Arg.(value & opt (some string) None
         & info [ "dump-dir" ] ~docv:"DIR"
             ~doc:"Write each shrunk finding there as a replayable .stc + \
                   .repro.txt description")
  in
  let lint_arg =
    Arg.(value & flag
         & info [ "lint" ]
             ~doc:"Also enforce the lint invariant: no Error-level finding on \
                   any accepted (program, plan) pair")
  in
  let run trace jobs seed cases dump_dir lint =
    with_trace trace @@ fun () ->
    set_jobs jobs;
    let s = Artemis_verify.Harness.run ?dump_dir ~lint ~seed ~cases () in
    print_string (Artemis_verify.Harness.summary_to_string s);
    match s.findings with
    | [] -> `Ok ()
    | fs ->
      (match dump_dir with
       | Some dir -> Printf.printf "repros dumped under %s\n" dir
       | None -> ());
      `Error (false, Printf.sprintf "%d differential finding(s)" (List.length fs))
  in
  Cmd.v
    (Cmd.info "fuzz" ~exits
       ~doc:"Differential fuzzing: random programs x sampled plans, checked \
             bit-exactly against the reference executor and the analytic \
             counter model")
    Term.(
      ret
        (const run $ trace_arg $ jobs_arg $ seed_arg $ cases_arg $ dump_arg
         $ lint_arg))

(* ---------------- trace-info ---------------- *)

let trace_info_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE.json"
           ~doc:"A trace file recorded with --trace")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit the summary as stable JSON instead of a table")
  in
  let top_arg =
    Arg.(value & opt int 15
         & info [ "top" ] ~docv:"N"
             ~doc:"Show the $(docv) most expensive names by cumulative time \
                   (0 = all; default 15)")
  in
  (* Self time: cumulative minus time spent in child spans.  Spans nest
     per tid; sorted by (start, -duration) a span's children follow it
     before its end, so a running stack attributes each child's duration
     to its innermost open parent. *)
  let self_times events =
    let field name ev = Option.bind (Json.member name ev) Json.to_float_opt in
    let spans tid =
      List.filter_map
        (fun ev ->
          match (field "tid" ev, field "ts" ev, field "dur" ev) with
          | Some t, Some ts, Some dur when t = tid ->
            let name =
              Option.bind (Json.member "name" ev) Json.to_string_opt
              |> Option.value ~default:"?"
            in
            Some (name, ts, dur)
          | _ -> None)
        events
    in
    let tids =
      List.sort_uniq compare (List.filter_map (field "tid") events)
    in
    let tbl : (string, float) Hashtbl.t = Hashtbl.create 16 in
    let add name v =
      Hashtbl.replace tbl name (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl name))
    in
    List.iter
      (fun tid ->
        let sorted =
          List.sort
            (fun (_, ts_a, dur_a) (_, ts_b, dur_b) ->
              compare (ts_a, -.dur_a) (ts_b, -.dur_b))
            (spans tid)
        in
        let stack = ref [] in
        let flush_top () =
          match !stack with
          | (name, _, dur, child) :: rest ->
            stack := rest;
            add name (dur -. !child);
            (match !stack with
            | (_, _, _, pchild) :: _ -> pchild := !pchild +. dur
            | [] -> ())
          | [] -> ()
        in
        List.iter
          (fun (name, ts, dur) ->
            let rec close () =
              match !stack with
              | (_, finish, _, _) :: _ when finish <= ts ->
                flush_top ();
                close ()
              | _ -> ()
            in
            close ();
            stack := (name, ts +. dur, dur, ref 0.0) :: !stack)
          sorted;
        while !stack <> [] do
          flush_top ()
        done)
      tids;
    tbl
  in
  let run path json top =
    match read_json path with
    | `Error _ as e -> e
    | `Ok doc -> (
      match Option.bind (Json.member "traceEvents" doc) Json.to_list_opt with
      | None -> `Error (false, path ^ ": not a Chrome trace (no traceEvents array)")
      | Some events ->
        (* Event counts and cumulative span time per name. *)
        let tbl : (string, int * float) Hashtbl.t = Hashtbl.create 16 in
        List.iter
          (fun ev ->
            let name =
              Option.bind (Json.member "name" ev) Json.to_string_opt
              |> Option.value ~default:"?"
            in
            let dur =
              Option.bind (Json.member "dur" ev) Json.to_float_opt
              |> Option.value ~default:0.0
            in
            let n, d = Option.value ~default:(0, 0.0) (Hashtbl.find_opt tbl name) in
            Hashtbl.replace tbl name (n + 1, d +. dur))
          events;
        let self = self_times events in
        let rows = Hashtbl.fold (fun name nd acc -> (name, nd) :: acc) tbl [] in
        let rows =
          (* Cumulative time descending; ties by name so the table is
             deterministic. *)
          List.sort
            (fun (na, (_, a)) (nb, (_, b)) -> compare (-.a, na) (-.b, nb))
            rows
        in
        let rows =
          if top <= 0 then rows else List.filteri (fun i _ -> i < top) rows
        in
        let self_of name = Option.value ~default:0.0 (Hashtbl.find_opt self name) in
        if json then
          print_endline
            (Json.to_string ~indent:true
               (Json.Obj
                  [ ("schema_version", Json.Int 1); ("file", Json.Str path);
                    ("events", Json.Int (List.length events));
                    ( "spans",
                      Json.List
                        (List.map
                           (fun (name, (n, dur_us)) ->
                             Json.Obj
                               [ ("name", Json.Str name); ("count", Json.Int n);
                                 ("cumulative_ms", Json.Float (dur_us /. 1e3));
                                 ("self_ms", Json.Float (self_of name /. 1e3)) ])
                           rows) ) ]))
        else begin
          Printf.printf "%s: %d events\n" path (List.length events);
          Printf.printf "%-24s %8s %12s %12s\n" "name" "count" "total ms" "self ms";
          List.iter
            (fun (name, (n, dur_us)) ->
              Printf.printf "%-24s %8d %12.3f %12.3f\n" name n (dur_us /. 1e3)
                (self_of name /. 1e3))
            rows
        end;
        `Ok ())
  in
  Cmd.v
    (Cmd.info "trace-info" ~exits
       ~doc:"Validate a recorded trace file and summarize its most expensive \
             spans (cumulative and self time, call counts)")
    Term.(ret (const run $ file_arg $ json_arg $ top_arg))

(* Every error a user can cause — an unknown subcommand or option, a
   value a flag's converter rejects, malformed input, a failed check —
   exits 1; only an uncaught exception (a bug) exits 125. *)
let () =
  let info =
    Cmd.info "artemisc" ~version:Artemis.version ~exits
      ~doc:"ARTEMIS stencil code generator (OCaml reproduction)"
  in
  exit
    (match
       Cmd.eval_value
         (Cmd.group info
            [ check_cmd; lint_cmd; analyze_cmd; compile_cmd; optimize_cmd;
              deep_cmd; bench_cmd;
              list_cmd; explain_cmd; bench_diff_cmd; fuzz_cmd; trace_info_cmd ])
     with
     | Ok (`Ok () | `Help | `Version) -> Cmd.Exit.ok
     | Error (`Parse | `Term) -> 1
     | Error `Exn -> Cmd.Exit.internal_error)
