(* The four workloads.  Each [setup] builds its items; running every item
   once is one pass.  Only [compile-corpus] depends on the seed: the
   suite inputs of the other three are fixed. *)

module I = Artemis.Instantiate
module Plan = Artemis.Plan
module Suite = Artemis.Suite
module Reference = Artemis.Reference
module Runner = Artemis.Runner
module Sampler = Artemis_verify.Sampler
module Grid = Artemis_exec.Grid

type item = {
  name : string;
  run : Pass.t -> unit;
}

let device = Artemis.Device.p100

(* The tuner's phase-1 base for a kernel: default options with block and
   unroll left to the search. *)
let tuner_base k =
  Artemis.Lower.lower device k
    { Artemis.Options.default with Artemis.Options.block = None; unroll = None }

(* Default plan with the block shape halved until launchable. *)
let exec_plan_of k =
  match Sampler.plan_of Sampler.default_cfg k with
  | Some p -> p
  | None -> invalid_arg ("no launchable default plan for " ^ k.I.kname)

let rec shrink_blocked steps =
  List.map
    (function
      | Runner.Run_plan p when p.Plan.temporal.Plan.degree > 1 ->
        Runner.Run_plan (Sampler.shrink_valid p 12)
      | Runner.Loop (n, sub) -> Runner.Loop (n, shrink_blocked sub)
      | step -> step)
    steps

let rec plans_of_steps steps =
  List.concat_map
    (function
      | Runner.Run_plan p -> [ p ]
      | Runner.Loop (_, sub) -> plans_of_steps sub
      | Runner.Swap _ -> [])
    steps

let distinct_kernels sched =
  let rec collect acc = function
    | [] -> acc
    | I.Launch k :: rest -> collect (k :: acc) rest
    | I.Exchange _ :: rest -> collect acc rest
    | I.Repeat (_, sub) :: rest -> collect (collect acc sub) rest
  in
  List.fold_left
    (fun acc (k : I.kernel) ->
      if List.exists (fun (k' : I.kernel) -> k'.kname = k.kname) acc then acc
      else acc @ [ k ])
    [] (List.rev (collect [] sched))

let copyouts (prog : Artemis.Ast.program) store =
  List.map (fun n -> (n, Grid.copy (Reference.find_array store n))) prog.copyout

(* ---- tune-spatial ---- *)

let spatial_names =
  [ "miniflux"; "hypterm"; "diffterm"; "addsgd4"; "addsgd6"; "rhs4center"; "rhs4sgcurv" ]

let tune_spatial () =
  List.concat_map
    (fun name ->
      List.map
        (fun (k : I.kernel) ->
          let item = name ^ "/" ^ k.kname in
          let run (p : Pass.t) =
            let r = Artemis.optimize_kernel k in
            Pass.check p (Artemis.Validate.is_valid r.tuned.plan) "chosen plan invalid";
            p.tflops <- r.tuned.tflops :: p.tflops;
            p.bases <-
              ( item,
                fun () ->
                  let d = Artemis.Hints.decide ~iterative:false r.baseline r.baseline_profile in
                  (tuner_base k, Artemis.Hierarchical.knobs_of_decisions d) )
              :: p.bases
          in
          { name = item; run })
        (Suite.kernels (Suite.find name)))
    spatial_names

(* ---- deep-iterative ---- *)

let deep_names =
  [ "7pt-smoother"; "27pt-smoother"; "helmholtz"; "denoise"; "jacobi7-iter"; "smooth2d-iter" ]

let deep_iterative () =
  List.map
    (fun name ->
      let b = Suite.find name in
      let run (p : Pass.t) =
        let dr = Artemis.deep_tune ~max_tile:3 ~max_degree:4 b.prog in
        Pass.check p (dr.deep.versions <> []) "empty deep version table";
        List.iter
          (fun (v : Artemis.Deep.version) ->
            Pass.check p
              (Artemis.Validate.is_valid v.record.best.plan)
              (Printf.sprintf "version %d plan invalid" v.time_tile))
          dr.deep.versions;
        (match dr.deep.versions with
         | v :: _ ->
           let per_sweep =
             v.record.best.counters.useful_flops
             /. float_of_int (Artemis.Deep.steps_covered v)
           in
           p.tflops <-
             (float_of_int b.time_steps *. per_sweep /. dr.predicted_time /. 1e12)
             :: p.tflops
         | [] -> ());
        p.bases <-
          ( name,
            fun () ->
              match List.find_map Artemis.Fusion.pingpong_of_item (I.schedule b.prog) with
              | Some (_, k, out, inp) ->
                ( { (tuner_base k) with
                    Plan.temporal = { Plan.no_temporal with Plan.pair = Some (out, inp) } },
                  Artemis.Hierarchical.default_knobs )
              | None -> invalid_arg (name ^ ": no ping-pong loop") )
          :: p.bases
      in
      { name; run })
    deep_names

(* ---- exec-suite ---- *)

let exec_size = 28
let dependent_sweeps = 4

let gs2d_src =
  {|parameter L=256, M=256; iterator j, i;
    double u[L,M], f[L,M]; copyin u, f;
    stencil gs (x, g) {
      x[j][i] = 0.25 * (x[j][i-1] + x[j-1][i] + x[j][i+1] + x[j+1][i]) + 0.0625 * g[j][i];
    }
    gs (u, f); copyout u;|}

let sor3d_src =
  {|parameter N=40; iterator k, j, i;
    double u[N,N,N]; copyin u;
    stencil sor (x) {
      x[k][j][i] = 0.0625 * x[k][j][i] + 0.125 * (x[k][j][i-1] + x[k][j-1][i] + x[k-1][j][i] + x[k][j][i+1] + x[k][j+1][i] + x[k+1][j][i]);
    }
    sor (u); copyout u;|}

(* Run [steps] through the block executor [sweeps] times on a fresh
   store, charging [layer].  Exec-suite prices the plans it runs. *)
let run_blocks ?(price = false) (p : Pass.t) ~layer ~sweeps prog steps =
  if price then p.plans <- plans_of_steps steps @ p.plans;
  let scalars = Reference.scalars_of_program prog in
  let store = Pass.timed p "exec.store" (fun () -> Reference.store_of_program prog) in
  Pass.timed p layer (fun () ->
      for _ = 1 to sweeps do
        ignore (Runner.run_schedule steps store ~scalars)
      done);
  copyouts prog store

let run_reference (p : Pass.t) ~layer ~sweeps prog =
  let scalars = Reference.scalars_of_program prog in
  let sched = I.schedule prog in
  let store = Pass.timed p "exec.store" (fun () -> Reference.store_of_program prog) in
  Pass.timed p layer (fun () ->
      for _ = 1 to sweeps do
        Reference.run_schedule store ~scalars sched
      done);
  copyouts prog store

let exec_suite () =
  let suite =
    List.map
      (fun (b : Suite.t) ->
        let prog = (Suite.at_size exec_size b).prog in
        let run (p : Pass.t) =
          let expected = run_reference p ~layer:"exec.reference" ~sweeps:1 prog in
          let steps = Runner.configure ~plan_of:exec_plan_of (I.schedule prog) in
          Pass.compare_copyouts p ~what:"blocks" ~expected
            ~actual:(run_blocks ~price:true p ~layer:"exec.blocks" ~sweeps:1 prog steps);
          if b.iterative then
            Pass.compare_copyouts p ~what:"blocked" ~expected
              ~actual:
                (run_blocks ~price:true p ~layer:"exec.blocked" ~sweeps:1 prog
                   (shrink_blocked (Runner.temporal_rewrite ~degree:4 steps)))
        in
        { name = b.name; run })
      Suite.all
  in
  let dependent =
    List.map
      (fun (name, src) ->
        let prog = Artemis.parse_string src in
        let run (p : Pass.t) =
          let expected =
            run_reference p ~layer:"exec.wavefront" ~sweeps:dependent_sweeps prog
          in
          let steps = Runner.configure ~plan_of:exec_plan_of (I.schedule prog) in
          Pass.compare_copyouts p ~what:"blocks" ~expected
            ~actual:
              (run_blocks ~price:true p ~layer:"exec.blocks" ~sweeps:dependent_sweeps prog
                 steps)
        in
        { name; run })
      [ ("gs2d", gs2d_src); ("sor3d", sor3d_src) ]
  in
  suite @ dependent

(* ---- compile-corpus ---- *)

(* Generated programs differ in size by orders of magnitude, so a fixed
   program count would make a pass's work move with the seed.  Programs
   are instead taken in seed order until their estimated cost reaches a
   fixed budget: a per-program overhead plus one unit per array element
   the store holds and per statement-point the schedule executes.  Fitted
   against measured item times (R^2 0.8-0.9), the overhead is about 4000
   units; the budget is about 2000 programs. *)
let program_overhead = 4000
let corpus_budget = 21_000_000

let program_cost (prog : Artemis.Ast.program) =
  let volume = Array.fold_left ( * ) 1 in
  let rec executed = function
    | I.Launch k -> volume k.domain * List.length k.body
    | I.Exchange _ -> 0
    | I.Repeat (n, sub) -> n * List.fold_left (fun a it -> a + executed it) 0 sub
  in
  let stored =
    List.fold_left
      (fun a -> function
        | Artemis.Ast.Array_decl (name, _) -> (
          match I.array_dims prog name with Some dims -> a + volume dims | None -> a)
        | Artemis.Ast.Scalar_decl _ -> a)
      0 prog.decls
  in
  program_overhead + stored
  + List.fold_left (fun a it -> a + executed it) 0 (I.schedule prog)

(* Source to checked program to one launchable plan and its CUDA per
   kernel: what [artemisc check]/[lint]/[compile] do per program. *)
let compile (p : Pass.t) src =
  let prog = Pass.timed p "dsl.parse" (fun () -> Artemis.parse_string src) in
  p.parsed_bytes <- p.parsed_bytes + String.length src;
  ignore (Pass.timed p "lint.program" (fun () -> Artemis.Lint.lint_program prog));
  let sched = I.schedule prog in
  let plans =
    List.map
      (fun (k : I.kernel) ->
        let raw =
          Pass.timed p "codegen.lower" (fun () ->
              Artemis.Lower.lower device k Artemis.Options.default)
        in
        let plan = Sampler.shrink_valid raw 12 in
        Pass.check p (Artemis.Validate.is_valid plan) (k.kname ^ ": no launchable plan");
        ignore (Pass.timed p "lint.plan" (fun () -> Artemis.Lint.lint_plan plan));
        let cuda = Pass.timed p "codegen.emit" (fun () -> Artemis.Cuda.emit plan) in
        p.cuda_bytes <- p.cuda_bytes + String.length cuda;
        (k.kname, plan))
      (distinct_kernels sched)
  in
  (prog, sched, plans)

(* The suite programs are compiled at their published sizes (too large
   to execute here); the seeded generated programs are also executed by
   both executors at their generated sizes.  Only the suite plans are
   priced for plan quality: the generated sizes are too small for modeled
   throughput to mean anything, and a seeded draw would make the metric
   move with the seed. *)
let compile_corpus ~seed =
  let suite =
    List.map
      (fun (b : Suite.t) ->
        let src = Artemis.Pretty.program_to_string b.prog in
        let run (p : Pass.t) =
          let _, _, plans = compile p src in
          p.plans <- List.map snd plans @ p.plans
        in
        { name = "suite/" ^ b.name; run })
      Suite.all
  in
  (* Rendered to [.stc] text during set-up, so each item starts from
     source. *)
  let rec draw index spent acc =
    if spent >= corpus_budget then List.rev acc
    else begin
      let prog = (Artemis_verify.Gen.generate ~seed ~index).prog in
      draw (index + 1) (spent + program_cost prog)
        ((index, Artemis.Pretty.program_to_string prog) :: acc)
    end
  in
  let generated =
    List.map
      (fun (index, src) ->
        let run (p : Pass.t) =
          let prog, sched, plans = compile p src in
          let expected = run_reference p ~layer:"exec.reference" ~sweeps:1 prog in
          let steps =
            Runner.configure ~plan_of:(fun (k : I.kernel) -> List.assoc k.kname plans) sched
          in
          Pass.compare_copyouts p ~what:"blocks" ~expected
            ~actual:(run_blocks p ~layer:"exec.blocks" ~sweeps:1 prog steps)
        in
        { name = Printf.sprintf "gen-%d" index; run })
      (draw 0 0 [])
  in
  suite @ generated

let setup ~seed = function
  | "tune-spatial" -> tune_spatial ()
  | "deep-iterative" -> deep_iterative ()
  | "exec-suite" -> exec_suite ()
  | "compile-corpus" -> compile_corpus ~seed
  | w -> invalid_arg ("unknown workload " ^ w)
