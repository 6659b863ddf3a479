(* Differential oracle: reference vs block executor vs analytic model. *)

module A = Artemis_dsl.Ast
module I = Artemis_dsl.Instantiate
module Plan = Artemis_ir.Plan
module Counters = Artemis_gpu.Counters
module E = Artemis_exec
module Lint = Artemis_lint.Lint
module S = Artemis_static.Static
module Trace = Artemis_obs.Trace

type mismatch =
  | Output_mismatch of { array : string; diff : float; margin : int }
  | Counter_mismatch of { plan : string; detail : string }
  | Lint_error of { code : string; detail : string }
  | Wavefront_mismatch of { executor : string; array : string; diff : float }
  | Static_mismatch of { kernel : string; stmt : int; detail : string }
  | Crash of { detail : string }

let mismatch_to_string = function
  | Output_mismatch { array; diff; margin } ->
    Printf.sprintf "output mismatch: %s differs by %g (margin %d)" array diff margin
  | Counter_mismatch { plan; detail } ->
    Printf.sprintf "counter mismatch (class sum vs exact loop) on %s: %s" plan detail
  | Lint_error { code; detail } ->
    Printf.sprintf "lint error (%s) on an accepted pair: %s" code detail
  | Wavefront_mismatch { executor; array; diff } ->
    Printf.sprintf
      "wavefront mismatch: %s executor's %s differs by %g from the point-wise \
       interpreter"
      executor array diff
  | Static_mismatch { kernel; stmt; detail } ->
    Printf.sprintf "static analyzer disagrees with dynamic behavior (%s, \
                    statement %d): %s"
      kernel stmt detail
  | Crash { detail } -> Printf.sprintf "crash: %s" detail

type verdict =
  | Checked of { plans : int; mismatches : mismatch list }
  | Skipped of string

let counters_brief (c : Counters.t) (c' : Counters.t) =
  Printf.sprintf "dram %g vs %g, tex %g vs %g, flops %g vs %g" c.dram_bytes
    c'.dram_bytes c.tex_bytes c'.tex_bytes c.useful_flops c'.useful_flops

let margin_of prog = function
  | Sampler.Fused segs ->
    (* Fused intermediates are zero-initialized where a sweep's guard
       fails while the ping-pong original keeps stale buffer contents;
       the divergence can propagate [order] points per sweep. *)
    let t = List.fold_left ( + ) 0 segs in
    (t * max 1 (Gen.max_shift prog)) + 2
  (* Invariant 6: temporal blocking never rewrites the body — b inner
     steps over the same two physical buffers are the composition of b
     launches exactly, so the comparison is bitwise everywhere. *)
  | Sampler.Plain | Sampler.Fissioned _ | Sampler.Temporal_blocked _ -> 0

let crash e =
  Checked { plans = 0; mismatches = [ Crash { detail = Printexc.to_string e } ] }

(* Temporal-blocked trials attach the degree after plans are configured
   ([Runner.temporal_rewrite]); the deeper halo windows can overflow
   shared memory at the degree-1 block shape, so blocked plans re-shrink
   through the tuner's validity filter. *)
let rec shrink_blocked_steps steps =
  List.map
    (function
      | E.Runner.Run_plan p when p.Plan.temporal.Plan.degree > 1 ->
        E.Runner.Run_plan (Sampler.shrink_valid p 12)
      | E.Runner.Loop (n, sub) -> E.Runner.Loop (n, shrink_blocked_steps sub)
      | step -> step)
    steps

let rec blocked_plans_of steps =
  List.concat_map
    (function
      | E.Runner.Run_plan p when p.Plan.temporal.Plan.degree > 1 -> [ p ]
      | E.Runner.Loop (_, sub) -> blocked_plans_of sub
      | _ -> [])
    steps

(* Invariant 5: the affine analyzer's footprints
   ([Artemis_static.Static]) agree with dynamic behavior on the
   program's own (plain) schedule.  For every statement, the analyzer's
   in-bounds box must contain exactly the domain points the executors'
   guard accepts: the write coordinates land in the target and
   [Eval.guard] (the executed read guard itself, not a re-derivation)
   passes.  Dependence verdicts have one engine; invariants 1 and 4
   check them by running the code. *)
let static_mismatches kernels =
  let acc = ref [] in
  List.iter
    (fun (k : I.kernel) ->
      let rank = Array.length k.domain in
      let push stmt detail =
        acc := Static_mismatch { kernel = "kernel " ^ k.I.kname; stmt; detail } :: !acc
      in
      let temps = Hashtbl.create 4 in
      let dims_of a =
        if Hashtbl.mem temps a then k.domain
        else
          match List.assoc_opt a k.arrays with
          | Some d -> d
          | None -> invalid_arg ("static_mismatches: unbound array " ^ a)
      in
      (* Guard probing only needs extents, never values: back every array
         (and temp) with a fresh grid of the right shape. *)
      let grids = Hashtbl.create 8 in
      let grid_of a =
        match Hashtbl.find_opt grids a with
        | Some g -> g
        | None ->
          let g = E.Grid.create (dims_of a) in
          Hashtbl.replace grids a g;
          g
      in
      let env =
        {
          E.Eval.lookup_array = grid_of;
          lookup_scalar = (fun _ -> 0.0);
          lookup_temp = (fun _ -> 0.0);
          iters = k.iters;
        }
      in
      let in_box (box : S.box) p =
        let ok = ref true in
        Array.iteri (fun d (lo, hi) -> if p.(d) < lo || p.(d) > hi then ok := false) box;
        !ok
      in
      let iter_domain f =
        let p = Array.make (max rank 1) 0 in
        let rec go d = if d = rank then f p
          else for c = 0 to k.domain.(d) - 1 do p.(d) <- c; go (d + 1) done
        in
        go 0
      in
      List.iteri
        (fun si (st, (target, idx, fp)) ->
          let e =
            match st with
            | A.Decl_temp (t, e) ->
              Hashtbl.replace temps t ();
              e
            | A.Assign (_, _, e) | A.Accum (_, _, e) -> e
          in
          (* Footprint agreement, point by point over the whole domain. *)
          let reported = ref false in
          iter_domain (fun p ->
              if not !reported then begin
                let wg = grid_of target in
                let dyn =
                  E.Grid.in_bounds wg (E.Eval.access_coords env p idx)
                  && E.Eval.guard env p e
                in
                let stat = in_box fp p in
                if dyn <> stat then begin
                  reported := true;
                  push si
                    (Printf.sprintf
                       "footprint %s %s point (%s) the executed guard %s"
                       (S.box_to_string fp)
                       (if stat then "contains" else "omits")
                       (String.concat ", "
                          (List.map string_of_int (Array.to_list p)))
                       (if dyn then "accepts" else "rejects"))
                end
              end))
        (List.combine k.body (S.domain_footprints k)))
    kernels;
  List.rev !acc

let check ?(lint = false) ?(schedule = E.Eval.Rows) (prog : A.program)
    (trial : Sampler.trial) =
  Trace.with_span "verify.trial" ~attrs:[ ("trial", Str (Sampler.trial_label trial)) ]
  @@ fun () ->
  (* Any exception past this point is a finding: the program checked (so
     it instantiates, once) and the plans validated, so the pipeline has
     no business raising. *)
  let plain = I.schedule prog in
  match Sampler.schedule_of_variant plain trial.variant with
  | exception e -> crash e
  | None -> Skipped "variant-inapplicable"
  | Some sched -> (
    (* Distinct by name — fused segment kernels of the same degree are
       structurally identical. *)
    let kernels = I.kernels sched in
    match List.map (fun k -> (k.I.kname, Sampler.plan_of trial.cfg k)) kernels with
    | exception e -> crash e
    | plans -> (
    match List.filter (fun (_, p) -> p = None) plans with
    | _ :: _ -> Skipped "no-launchable-plan"
    | [] -> (
      let plan_for (k : I.kernel) =
        match List.assoc k.kname plans with Some p -> p | None -> assert false
      in
      let scalars = E.Reference.scalars_of_program prog in
      (* The reference always runs the program's own schedule: fused and
         fissioned trials are compared across the transformation. *)
      let ref_store = E.Reference.store_of_program prog in
      match E.Reference.run_schedule ~schedule ref_store ~scalars plain with
      | exception e -> crash e
      | () ->
      let exec_store = E.Reference.store_of_program prog in
      let steps = E.Runner.configure ~plan_of:plan_for sched in
      let steps, blocked =
        match trial.variant with
        | Sampler.Temporal_blocked degree ->
          let steps =
            shrink_blocked_steps (E.Runner.temporal_rewrite ~degree steps)
          in
          (steps, blocked_plans_of steps)
        | _ -> (steps, [])
      in
      match trial.variant with
      | Sampler.Temporal_blocked _ when blocked = [] ->
        Skipped "variant-inapplicable"
      | Sampler.Temporal_blocked _
        when not (List.for_all Artemis_ir.Validate.is_valid blocked) ->
        Skipped "no-launchable-blocked-plan"
      | _ -> (
      match E.Runner.run_schedule ~schedule steps exec_store ~scalars with
      | exception E.Kernel_exec.Unsupported msg -> Skipped ("unsupported: " ^ msg)
      | exception e -> crash e
      | () ->
        let mismatches = ref [] in
        let push m =
          Trace.instant "verify.mismatch"
            ~attrs:[ ("detail", Str (mismatch_to_string m)) ];
          mismatches := m :: !mismatches
        in
        (* Invariant 3 (with ~lint): no Error-level finding on the
           accepted pair — the program, each (possibly transformed)
           kernel, and each validated plan must lint error-free. *)
        if lint then begin
          let push_errors findings =
            List.iter
              (fun (f : Lint.finding) ->
                if f.severity = Lint.Error then
                  push
                    (Lint_error
                       { code = f.code;
                         detail = Printf.sprintf "%s: %s" f.location f.message }))
              findings
          in
          (match Lint.lint_program prog with
           | exception e -> push (Crash { detail = Printexc.to_string e })
           | fs -> push_errors fs);
          List.iter
            (fun (k : I.kernel) ->
              match Lint.lint_kernel k with
              | exception e -> push (Crash { detail = Printexc.to_string e })
              | fs -> push_errors fs)
            kernels;
          List.iter
            (fun (_, plan) ->
              match plan with
              | None -> ()
              | Some p -> (
                match Lint.lint_plan p with
                | exception e -> push (Crash { detail = Printexc.to_string e })
                | fs -> push_errors fs))
            (plans @ List.map (fun p -> ("blocked", Some p)) blocked)
        end;
        (* Invariant 2: fast class summation == exact per-block loop —
           including the temporally blocked plans, whose per-degree halo
           growth and ring traffic are charged inside the per-block
           counters and so must agree under both summation orders. *)
        List.iter
          (fun (_, plan) ->
            match plan with
            | None -> ()
            | Some p -> (
              match E.Traffic.make_ctx p with
              | exception e -> push (Crash { detail = Printexc.to_string e })
              | ctx ->
                let fast = E.Traffic.total_counters ctx in
                let exact = E.Traffic.total_counters ~exact:true ctx in
                if not (Counters.approx_equal fast exact) then
                  push
                    (Counter_mismatch
                       { plan = Plan.label p; detail = counters_brief fast exact })))
          (plans @ List.map (fun p -> ("blocked", Some p)) blocked);
        (* Invariant 1: copied-out grids match the reference. *)
        let margin = margin_of prog trial.variant in
        List.iter
          (fun a ->
            match I.array_dims prog a with
            | None -> ()
            | Some _ ->
              let g_ref = E.Reference.find_array ref_store a in
              let g_exec = E.Reference.find_array exec_store a in
              let diff =
                if margin = 0 then E.Grid.max_abs_diff g_ref g_exec
                else E.Grid.max_abs_diff_interior ~margin g_ref g_exec
              in
              if diff <> 0.0 then push (Output_mismatch { array = a; diff; margin }))
          prog.copyout;
        (* Invariant 4: on self-dependent programs the wavefront schedule
           must be pure acceleration — re-running both executors under
           the point-wise interpreter must reproduce every copied-out
           grid bit for bit.  Runner steps are store-free, so the same
           configured plans re-execute on fresh stores.  Under the
           interpreter there is nothing to compare. *)
        let self_dependent =
          List.exists
            (fun (k : I.kernel) ->
              List.exists
                (fun st ->
                  match S.self_dependences ~iters:k.iters st with
                  | S.No_dep -> false
                  | S.Uniform _ | S.Unknown -> true)
                k.body)
            kernels
        in
        (* Invariant 5: analyzer footprints match the executed guards
           point for point. *)
        (match static_mismatches (I.kernels plain) with
        | exception e -> push (Crash { detail = Printexc.to_string e })
        | ms -> List.iter push ms);
        (match schedule with
         | E.Eval.Rows when self_dependent ->
           let schedule = E.Eval.Interpret in
           let compare_outputs executor base store =
             List.iter
               (fun a ->
                 match I.array_dims prog a with
                 | None -> ()
                 | Some _ ->
                   let diff =
                     E.Grid.max_abs_diff
                       (E.Reference.find_array base a)
                       (E.Reference.find_array store a)
                   in
                   if diff <> 0.0 then
                     push (Wavefront_mismatch { executor; array = a; diff }))
               prog.copyout
           in
           let ref2 = E.Reference.store_of_program prog in
           (match E.Reference.run_schedule ~schedule ref2 ~scalars plain with
           | exception e -> push (Crash { detail = Printexc.to_string e })
           | () -> compare_outputs "reference" ref_store ref2);
           let exec2 = E.Reference.store_of_program prog in
           (match E.Runner.run_schedule ~schedule steps exec2 ~scalars with
           | exception e -> push (Crash { detail = Printexc.to_string e })
           | () -> compare_outputs "blocks" exec_store exec2)
         | E.Eval.Rows | E.Eval.Interpret -> ());
        Checked { plans = List.length plans; mismatches = List.rev !mismatches }))))
