(* Benchmark-suite tests: every derived characteristic must equal the
   paper's Table I, structural notes must hold (kernel splits, SW4
   temporaries, user assignments, mixed dimensionality), and the baseline
   generators must behave as Section VIII describes. *)

open Artemis_dsl
module A = Ast
module I = Instantiate
module Suite = Artemis_bench.Suite
module Sg = Artemis_bench.Stencil_gen
module B = Builder

let case name f = Alcotest.test_case name `Quick f
let dev = Artemis_gpu.Device.p100

let table1_cases =
  List.map
    (fun (b : Suite.t) ->
      case (Printf.sprintf "Table I: %s" b.name) (fun () ->
          let flops, order, arrays = Suite.characteristics b in
          Alcotest.(check int) "flops" b.expect.flops flops;
          Alcotest.(check int) "order" b.expect.order order;
          Alcotest.(check int) "arrays" b.expect.arrays arrays;
          Alcotest.(check int) "domain" b.domain
            (match List.assoc_opt "L" b.prog.params with Some v -> v | None -> 0);
          Alcotest.(check bool) "T column" true
            (if b.iterative then b.time_steps >= 12 else b.time_steps = 1)))
    Suite.all

let tests =
  ( "suite",
    table1_cases
    @ [
        case "eleven Table-I benchmarks plus the two temporal rows" (fun () ->
            Alcotest.(check int) "count" 13 (List.length Suite.all));
        case "miniflux and diffterm are two-kernel benchmarks" (fun () ->
            Alcotest.(check int) "miniflux" 2
              (List.length (Suite.kernels (Suite.find "miniflux")));
            Alcotest.(check int) "diffterm" 2
              (List.length (Suite.kernels (Suite.find "diffterm"))));
        case "rhs4center reads five 3-D inputs and writes three outputs"
          (fun () ->
            let k = List.hd (Suite.kernels (Suite.find "rhs4center")) in
            let facts = Artemis_ir.Kernel_facts.of_kernel k in
            let inputs = facts.pure_inputs in
            Alcotest.(check (list string)) "inputs"
              [ "la"; "mu"; "u0"; "u1"; "u2" ]
              (List.sort compare inputs);
            Alcotest.(check (list string)) "outputs"
              [ "uacc0"; "uacc1"; "uacc2" ]
              (List.sort compare facts.final_outputs));
        case "SW4 kernels carry the twelve Figure-3 temporaries" (fun () ->
            List.iter
              (fun bname ->
                let k = List.hd (Suite.kernels (Suite.find bname)) in
                let temps =
                  List.filter (function A.Decl_temp _ -> true | _ -> false) k.body
                in
                Alcotest.(check int) bname 12 (List.length temps))
              [ "rhs4center"; "rhs4sgcurv" ]);
        case "addsgd kernels mix 3-D and 1-D arrays" (fun () ->
            List.iter
              (fun bname ->
                let k = List.hd (Suite.kernels (Suite.find bname)) in
                let ranks =
                  List.map (fun (_, dims) -> Array.length dims) k.arrays
                  |> List.sort_uniq compare
                in
                Alcotest.(check (list int)) bname [ 1; 3 ] ranks)
              [ "addsgd4"; "addsgd6" ]);
        case "SW4 user assignments present (Section VIII-E)" (fun () ->
            List.iter
              (fun bname ->
                let k = List.hd (Suite.kernels (Suite.find bname)) in
                Alcotest.(check bool) bname true (k.I.assign <> []))
              [ "addsgd4"; "addsgd6"; "rhs4center"; "rhs4sgcurv" ]);
        case "iterative benchmarks expose a ping-pong loop" (fun () ->
            List.iter
              (fun (b : Suite.t) ->
                if b.iterative then
                  Alcotest.(check bool) b.name true (b.pingpong <> None))
              Suite.all);
        case "at_size rescales every parameter" (fun () ->
            let b = Suite.at_size 10 (Suite.find "hypterm") in
            List.iter
              (fun (_, v) -> Alcotest.(check int) "10" 10 v)
              b.prog.params);
        case "stencil_gen: pad_to hits exact targets" (fun () ->
            List.iter
              (fun target ->
                let body =
                  [ B.assign3 "o" (B.a3 "x" (0, 0, 0)) ]
                  |> Sg.pad_to ~target ~out:"o" ~arr:"x"
                in
                Alcotest.(check int) (string_of_int target) target
                  (Sg.body_flops body))
              [ 1; 2; 3; 31; 32; 33; 64; 100; 1000 ]);
        case "stencil_gen: pad_to rejects overfull bodies" (fun () ->
            let body = [ B.assign3 "o" (Sg.star_sum "x" ~order:4 ~w0:0.5) ] in
            match Sg.pad_to ~target:3 ~out:"o" ~arr:"x" body with
            | exception Invalid_argument _ -> ()
            | _ -> Alcotest.fail "expected Invalid_argument");
        case "stencil_gen: star_sum has the requested order" (fun () ->
            List.iter
              (fun order ->
                let body = [ B.assign3 "o" (Sg.star_sum "x" ~order ~w0:0.5) ] in
                let prog =
                  B.program_checked ~params:[ ("L", 16) ]
                    ~decls:[ B.array "x" [ "L"; "L"; "L" ]; B.array "o" [ "L"; "L"; "L" ] ]
                    ~stencils:[ B.stencil "s0" [ "o"; "x" ] body ]
                    ~main:[ A.Run (A.Apply ("s0", [ "o"; "x" ])) ]
                    ()
                in
                let k = match I.schedule prog with [ I.Launch k ] -> k | _ -> assert false in
                Alcotest.(check int) "order" order (Analysis.stencil_order k))
              [ 1; 2; 3; 4 ]);
        case "stencil_gen: generate meets its spec" (fun () ->
            let spec =
              { Sg.name = "syn"; order = 3;
                inputs3d = [ "x"; "y"; "z" ]; inputs1d = [ "w1" ];
                outputs = [ "o1"; "o2" ]; shared_temps = 4; flops = 500 }
            in
            let body = Sg.generate spec in
            Alcotest.(check int) "flops" 500 (Sg.body_flops body));
        case "STENCILGEN rejects mixed-dimensionality SW4 kernels" (fun () ->
            let k = List.hd (Suite.kernels (Suite.at_size 64 (Suite.find "addsgd4"))) in
            match Artemis_baselines.Stencilgen.tune dev k with
            | Artemis_baselines.Stencilgen.Unsupported _ -> ()
            | _ -> Alcotest.fail "expected Unsupported");
        case "STENCILGEN handles the smoothers" (fun () ->
            let k =
              List.hd (Suite.kernels (Suite.at_size 64 (Suite.find "7pt-smoother")))
            in
            match Artemis_baselines.Stencilgen.tune dev k with
            | Artemis_baselines.Stencilgen.Tuned (m, explored) ->
              Alcotest.(check bool) "positive perf" true (m.tflops > 0.0);
              Alcotest.(check bool) "explored" true (explored > 0)
            | Artemis_baselines.Stencilgen.Unsupported r -> Alcotest.fail r);
        case "PPCG produces a derated result" (fun () ->
            let k =
              List.hd (Suite.kernels (Suite.at_size 64 (Suite.find "7pt-smoother")))
            in
            match Artemis_baselines.Ppcg.tune dev k with
            | Some r ->
              Alcotest.(check bool) "derated below raw" true
                (r.derated_tflops < r.measurement.tflops)
            | None -> Alcotest.fail "no result");
        case "PPCG loses to ARTEMIS on every benchmark (Fig 5 ordering)"
          (fun () ->
            (* spot-check the two families' representatives at full size *)
            List.iter
              (fun bname ->
                let k = List.hd (Suite.kernels (Suite.find bname)) in
                let ppcg =
                  match Artemis_baselines.Ppcg.tune dev k with
                  | Some r -> r.derated_tflops
                  | None -> 0.0
                in
                let artemis = (Artemis.optimize_kernel k).tuned.tflops in
                Alcotest.(check bool) bname true (artemis > ppcg))
              [ "7pt-smoother"; "rhs4center" ]);
      ] )
