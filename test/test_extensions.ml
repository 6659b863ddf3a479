(* Extension tests: 2-D stencil programs end to end (the DSL and every
   phase are rank-generic), device portability (V100), and the traffic
   model's ablation hook. *)

open Artemis_dsl
module A = Ast
module I = Instantiate
module Plan = Artemis_ir.Plan
module E = Artemis_exec
module O = Artemis_codegen.Options

let case name f = Alcotest.test_case name `Quick f
let p100 = Artemis_gpu.Device.p100
let v100 = Artemis_gpu.Device.v100

(* A 2-D 5-point blur with one intermediate — exercises rank-2 paths. *)
let blur2d_src n =
  Printf.sprintf
    {|parameter M=%d, N=%d;
      iterator j, i;
      double u[M,N], g[M,N], out[M,N], w;
      copyin u, g, w;
      stencil blur (O, G, U, ww) {
        G[j][i] = 0.25 * (U[j][i+1] + U[j][i-1] + U[j+1][i] + U[j-1][i]);
        O[j][i] = U[j][i] + ww * (G[j][i+1] + G[j][i-1] - 2.0 * G[j][i]);
      }
      blur (out, g, u, w);
      copyout out;|}
    n n

let parse_checked src =
  let p = Parser.parse_program src in
  Check.check p;
  p

let tests =
  ( "extensions",
    [
      case "2-D program parses, checks, and instantiates" (fun () ->
          let prog = parse_checked (blur2d_src 32) in
          let k = match I.schedule prog with [ I.Launch k ] -> k | _ -> assert false in
          Alcotest.(check int) "rank 2" 2 (Array.length k.domain);
          Alcotest.(check (list string)) "iterators" [ "j"; "i" ] k.iters;
          Alcotest.(check int) "order" 1 (Analysis.stencil_order k));
      case "2-D tiled plan executes == reference" (fun () ->
          let prog = parse_checked (blur2d_src 24) in
          let k = match I.schedule prog with [ I.Launch k ] -> k | _ -> assert false in
          let sched = I.schedule prog in
          let scalars = E.Reference.scalars_of_program prog in
          let ref_store = E.Reference.store_of_program prog in
          E.Reference.run_schedule ref_store ~scalars sched;
          let store = E.Reference.store_of_program prog in
          let plan =
            { (Plan.default p100 k) with
              Plan.block = [| 8; 32 |]; placement = [ ("u", A.Shmem) ] }
          in
          E.Kernel_exec.run (Util.valid plan) store ~scalars;
          Alcotest.(check (float 0.0)) "bit-exact" 0.0
            (E.Grid.max_abs_diff
               (E.Reference.find_array ref_store "out")
               (E.Reference.find_array store "out")));
      case "2-D streaming plan executes == reference" (fun () ->
          let prog = parse_checked (blur2d_src 24) in
          let k = match I.schedule prog with [ I.Launch k ] -> k | _ -> assert false in
          let store0 = E.Reference.store_of_program prog in
          let scalars = E.Reference.scalars_of_program prog in
          E.Reference.run_kernel store0 ~scalars k;
          let store = E.Reference.store_of_program prog in
          let plan =
            { (Plan.default p100 k) with
              Plan.scheme = Plan.Serial_stream 0; block = [| 1; 64 |];
              placement = [ ("u", A.Shmem) ] }
          in
          E.Kernel_exec.run (Util.valid plan) store ~scalars;
          Alcotest.(check (float 0.0)) "bit-exact" 0.0
            (E.Grid.max_abs_diff
               (E.Reference.find_array store0 "out")
               (E.Reference.find_array store "out")));
      case "2-D program tunes" (fun () ->
          let prog = parse_checked (blur2d_src 256) in
          let k = match I.schedule prog with [ I.Launch k ] -> k | _ -> assert false in
          let r = Artemis.optimize_kernel k in
          Alcotest.(check bool) "positive perf" true (r.tuned.tflops > 0.0));
      case "V100 plans validate and measure" (fun () ->
          let b = Artemis_bench.Suite.find "7pt-smoother" in
          let k = List.hd (Artemis_bench.Suite.kernels b) in
          let p = Artemis_codegen.Lower.lower v100 k O.default in
          match E.Analytic.try_measure p with
          | Some m -> Alcotest.(check bool) "positive" true (m.tflops > 0.0)
          | None -> Alcotest.fail "V100 plan invalid");
      case "V100's larger shared memory admits bigger footprints" (fun () ->
          (* a block needing 60 KB launches on V100, not on P100 *)
          let u =
            { Artemis_gpu.Occupancy.threads_per_block = 256; regs_per_thread = 32;
              shared_per_block = 60 * 1024 }
          in
          Alcotest.(check int) "p100 zero" 0
            (Artemis_gpu.Occupancy.calculate p100 u).blocks_per_sm;
          Alcotest.(check bool) "v100 launches" true
            ((Artemis_gpu.Occupancy.calculate v100 u).blocks_per_sm > 0));
      case "halo miss rate moves DRAM traffic monotonically" (fun () ->
          let b = Artemis_bench.Suite.at_size 32 (Artemis_bench.Suite.find "7pt-smoother") in
          let k = List.hd (Artemis_bench.Suite.kernels b) in
          let dram hm =
            let device = { p100 with halo_miss = hm } in
            (E.Analytic.measure (Util.valid (Artemis_codegen.Lower.lower device k O.default)))
              .counters.dram_bytes
          in
          Alcotest.(check bool) "monotone" true (dram 0.2 < dram 0.8));
      case "extras: every 2-D benchmark executes == reference" (fun () ->
          let module X = Artemis_bench.Extras in
          List.iter
            (fun (b0 : X.t) ->
              let b = X.at_size 20 b0 in
              Check.check b.prog;
              let sched = I.schedule b.prog in
              let scalars = E.Reference.scalars_of_program b.prog in
              let ref_store = E.Reference.store_of_program b.prog in
              E.Reference.run_schedule ref_store ~scalars sched;
              let store = E.Reference.store_of_program b.prog in
              let plan_of k =
                Artemis_codegen.Lower.lower p100 k O.default
              in
              let steps = E.Runner.configure ~plan_of sched in
              E.Runner.run_schedule steps store ~scalars;
              List.iter
                (fun out ->
                  Alcotest.(check (float 1e-6)) (b.name ^ "/" ^ out) 0.0
                    (E.Grid.max_abs_diff
                       (E.Reference.find_array ref_store out)
                       (E.Reference.find_array store out)))
                b.prog.copyout)
            X.all);
      case "extras: gradmag's weight product folds" (fun () ->
          let module X = Artemis_bench.Extras in
          let k = List.hd (X.kernels (X.find "gradmag")) in
          match Analysis.foldable_groups k with
          | [ (A.Mul, arrays) ] ->
            Alcotest.(check (list string)) "gx,wx" [ "gx"; "wx" ]
              (List.sort compare arrays)
          | _ -> Alcotest.fail "expected one Mul group");
      case "extras: heat2d deep tuning covers its time loop" (fun () ->
          let module X = Artemis_bench.Extras in
          let b = X.find "heat2d" in
          let dr = Artemis.deep_tune ~max_tile:3 b.prog in
          Alcotest.(check int) "covers T=16" 16
            (List.fold_left ( + ) 0 dr.schedule));
      case "extras: heat2d fused execution equals reference (interior)"
        (fun () ->
          let module X = Artemis_bench.Extras in
          let b = X.at_size 24 (X.find "heat2d") in
          (* shorten the time loop so boundary effects (one cell per sweep)
             leave a comparable deep interior at this grid size *)
          let prog =
            { b.prog with
              A.main =
                [ A.Iterate (4, [ A.Apply ("heat2d", [ "v"; "u"; "alpha" ]);
                                  A.Swap ("v", "u") ]) ] }
          in
          let b = { b with X.prog } in
          let sched = I.schedule b.prog in
          let scalars = E.Reference.scalars_of_program b.prog in
          match List.find_map Artemis_fuse.Fusion.pingpong_of_item sched with
          | None -> Alcotest.fail "no ping-pong"
          | Some pp ->
            let t, _, _, inp = pp in
            let plain = E.Reference.store_of_program b.prog in
            E.Reference.run_schedule plain ~scalars sched;
            let fused_sched =
              Artemis_fuse.Fusion.fuse_pingpong pp
                ~schedule:(List.init (t / 2) (fun _ -> 2))
            in
            let fused = E.Reference.store_of_program b.prog in
            E.Reference.run_schedule fused ~scalars fused_sched;
            (* interior margin only leaves a small core at 24^2 *)
            ignore
              (Alcotest.(check bool) "close on deep interior" true
                 (E.Grid.max_abs_diff_interior ~margin:10
                    (E.Reference.find_array plain inp)
                    (E.Reference.find_array fused inp)
                  < 1e-6)));
      case "1-D stencil programs work end to end" (fun () ->
          let prog =
            parse_checked
              {|parameter N=64; iterator i;
                double u[N], out[N], c0;
                copyin u, c0;
                stencil s0 (O, U, cc) {
                  O[i] = cc * (U[i-1] + U[i] + U[i+1]);
                }
                s0 (out, u, c0);
                copyout out;|}
          in
          let k = match I.schedule prog with [ I.Launch k ] -> k | _ -> assert false in
          let scalars = E.Reference.scalars_of_program prog in
          let ref_store = E.Reference.store_of_program prog in
          E.Reference.run_kernel ref_store ~scalars k;
          let store = E.Reference.store_of_program prog in
          let plan = { (Plan.default p100 k) with Plan.block = [| 64 |] } in
          E.Kernel_exec.run (Util.valid plan) store ~scalars;
          Alcotest.(check (float 0.0)) "bit-exact" 0.0
            (E.Grid.max_abs_diff
               (E.Reference.find_array ref_store "out")
               (E.Reference.find_array store "out")));
    ] )
