(* Executor tests: every generated plan must produce the reference
   executor's values — bit-for-bit for plans that preserve evaluation
   order, within tolerance where retiming reassociates sums — across a
   matrix of schemes, block shapes, unrolls, perspectives, and staging
   choices, on every benchmark at test size. *)

open Artemis_dsl
module A = Ast
module I = Instantiate
module Plan = Artemis_ir.Plan
module E = Artemis_exec
module Suite = Artemis_bench.Suite

let case name f = Alcotest.test_case name `Quick f
let dev = Artemis_gpu.Device.p100

(* Run a program's schedule with [plan_of] configuring each kernel and
   compare every copyout array against the reference executor. *)
let compare_program ?(tol = 0.0) ?(margin = 0) (prog : A.program) ~plan_of =
  Check.check prog;
  let sched = I.schedule prog in
  let scalars = E.Reference.scalars_of_program prog in
  let ref_store = E.Reference.store_of_program prog in
  E.Reference.run_schedule ref_store ~scalars sched;
  let store = E.Reference.store_of_program prog in
  let steps = E.Runner.configure ~plan_of sched in
  E.Runner.run_schedule steps store ~scalars;
  List.iter
    (fun name ->
      let a = E.Reference.find_array ref_store name in
      let b = E.Reference.find_array store name in
      let diff =
        if margin = 0 then E.Grid.max_abs_diff a b
        else E.Grid.max_abs_diff_interior ~margin a b
      in
      (* tolerance is relative to the data magnitude: iterated smoothers
         grow values by orders of magnitude, scaling rounding error *)
      let scale =
        Array.fold_left (fun m v -> Float.max m (Float.abs v)) 1.0 a.E.Grid.data
      in
      if diff > tol *. scale then
        Alcotest.failf "array %s differs by %g (tol %g x scale %g)" name diff tol
          scale)
    prog.copyout

(* Shrink the block shape until the plan is launchable (heavy kernels
   cannot run at every matrix shape) — mirroring what the tuner's validity
   filter does. *)
let plan_of_opts opts k =
  Artemis_verify.Sampler.shrink_valid (Artemis_codegen.Lower.lower dev k opts) 12

(* The plan matrix every benchmark is executed under. *)
let plan_matrix =
  let module O = Artemis_codegen.Options in
  [
    ("global tiled", O.global_tiled);
    ("global tiled 8x8x8", { O.global_tiled with O.block = Some [| 8; 8; 8 |] });
    ("global stream", O.global_stream);
    ("shared stream", O.default);
    ("shared stream unroll j=2",
     { O.default with O.unroll = Some [| 1; 2; 1 |] });
    ("shared stream unroll i=2 cyclic",
     { O.default with O.unroll = Some [| 1; 1; 2 |]; distribution = Plan.Cyclic });
    ("shared tiled", { O.default with O.scheme = O.Force_tiled });
    ("concurrent stream", { O.default with O.scheme = O.Force_concurrent (None, 8) });
    ("prefetch", { O.default with O.prefetch = true });
    ("input perspective", { O.default with O.perspective = Plan.Input_persp });
    ("mixed perspective", { O.default with O.perspective = Plan.Mixed_persp });
    ("folding", { O.default with O.fold = true });
    ("no user assign", { O.default with O.honor_user_assign = false });
  ]

let bench_cases =
  List.concat_map
    (fun bname ->
      let b = Suite.at_size 12 (Suite.find bname) in
      List.map
        (fun (pname, opts) ->
          case
            (Printf.sprintf "%s / %s == reference" bname pname)
            (fun () -> compare_program b.prog ~plan_of:(plan_of_opts opts)))
        plan_matrix)
    [ "7pt-smoother"; "denoise"; "miniflux"; "rhs4center" ]

(* Retiming reassociates the sum (tolerance) and its decomposed guards
   differ per plane at domain faces (the real generated code computes
   partial sums there too), so compare on the deep interior: boundary
   effects propagate one cell per sweep over the 12 iterations. *)
let retime_cases =
  List.map
    (fun bname ->
      case (Printf.sprintf "%s / retimed ~= reference" bname) (fun () ->
          let b = Suite.at_size 34 (Suite.find bname) in
          let module O = Artemis_codegen.Options in
          compare_program ~tol:1e-9 ~margin:14 b.prog
            ~plan_of:(plan_of_opts { O.default with O.retime = true })))
    [ "27pt-smoother"; "7pt-smoother"; "addsgd4" ]

(* Spot checks of the remaining benchmarks under the default plan. *)
let default_cases =
  List.map
    (fun bname ->
      case (Printf.sprintf "%s / default == reference" bname) (fun () ->
          let b = Suite.at_size 12 (Suite.find bname) in
          compare_program b.prog
            ~plan_of:(plan_of_opts Artemis_codegen.Options.default)))
    [ "27pt-smoother"; "helmholtz"; "hypterm"; "diffterm"; "addsgd4"; "addsgd6";
      "rhs4sgcurv" ]

let tests =
  ( "exec",
    bench_cases @ retime_cases @ default_cases
    @ [
        case "grid pattern is deterministic" (fun () ->
            let a = E.Grid.create [| 4; 5; 6 |] in
            let b = E.Grid.create [| 4; 5; 6 |] in
            E.Grid.init_pattern ~seed:3 a;
            E.Grid.init_pattern ~seed:3 b;
            Alcotest.(check (float 0.0)) "equal" 0.0 (E.Grid.max_abs_diff a b));
        case "grid pattern differs across seeds" (fun () ->
            let a = E.Grid.create [| 8; 8; 8 |] in
            let b = E.Grid.create [| 8; 8; 8 |] in
            E.Grid.init_pattern ~seed:1 a;
            E.Grid.init_pattern ~seed:2 b;
            Alcotest.(check bool) "differ" true (E.Grid.max_abs_diff a b > 0.0));
        case "reference leaves boundary cells untouched" (fun () ->
            let b = Suite.at_size 10 (Suite.find "7pt-smoother") in
            let prog =
              { b.prog with A.main = [ A.Run (A.Apply ("jacobi7",
                  [ "out"; "in"; "h2inv"; "a"; "b" ])) ] }
            in
            let store = E.Reference.store_of_program prog in
            let before = E.Grid.copy (E.Reference.find_array store "out") in
            E.Reference.run_schedule store
              ~scalars:(E.Reference.scalars_of_program prog)
              (I.schedule prog);
            let after = E.Reference.find_array store "out" in
            (* corner cell is outside the interior *)
            Alcotest.(check (float 0.0)) "corner" (E.Grid.get before [| 0; 0; 0 |])
              (E.Grid.get after [| 0; 0; 0 |]);
            Alcotest.(check bool) "interior changed" true
              (E.Grid.get before [| 5; 5; 5 |] <> E.Grid.get after [| 5; 5; 5 |]));
        case "swap exchanges bindings" (fun () ->
            let store : E.Reference.store = Hashtbl.create 4 in
            let ga = E.Grid.create [| 2 |] and gb = E.Grid.create [| 2 |] in
            Array.fill ga.E.Grid.data 0 2 1.0;
            Array.fill gb.E.Grid.data 0 2 2.0;
            Hashtbl.replace store "a" ga;
            Hashtbl.replace store "b" gb;
            E.Reference.run_schedule store ~scalars:[] [ I.Exchange ("a", "b") ];
            Alcotest.(check (float 0.0)) "a is old b" 2.0
              (E.Grid.get (E.Reference.find_array store "a") [| 0 |]));
        case "executor rejects accumulate-first intermediates" (fun () ->
            let prog =
              Parser.parse_program
                {|parameter L=8; iterator k, j, i;
                  double u[L,L,L], g[L,L,L], o[L,L,L];
                  stencil s0 (O, G, U) {
                    G[k][j][i] += U[k][j][i];
                    O[k][j][i] = G[k][j][i+1];
                  }
                  s0 (o, g, u);|}
            in
            Check.check prog;
            let k =
              match I.schedule prog with
              | [ I.Launch k ] -> k
              | _ -> assert false
            in
            let p =
              { (Plan.default dev k) with
                Plan.scheme = Plan.Serial_stream 0; block = [| 1; 8; 8 |];
                placement = [ ("u", A.Shmem) ] }
            in
            let store = E.Reference.store_of_program prog in
            match E.Kernel_exec.run (Util.valid p) store ~scalars:[] with
            | exception E.Kernel_exec.Unsupported _ -> ()
            | () -> Alcotest.fail "expected Unsupported");
        case "class summation equals exact block loop" (fun () ->
            let b = Suite.at_size 24 (Suite.find "rhs4center") in
            let k = List.hd (Suite.kernels b) in
            List.iter
              (fun opts ->
                let p = Artemis_codegen.Lower.lower dev k opts in
                let ctx = E.Traffic.make_ctx p in
                let fast = E.Traffic.total_counters ctx in
                let exact = E.Traffic.total_counters ~exact:true ctx in
                Alcotest.(check bool) "counters equal" true
                  (Artemis_gpu.Counters.approx_equal fast exact))
              [ Artemis_codegen.Options.default;
                Artemis_codegen.Options.global_tiled ]);
      ] )
