(* Codegen tests: option derivation from pragmas, lowering decisions,
   resource assignment (automatic / user / occupancy rationing), the
   retiming transform, and the CUDA emitter. *)

open Artemis_dsl
module A = Ast
module I = Instantiate
module Plan = Artemis_ir.Plan
module O = Artemis_codegen.Options
module Lower = Artemis_codegen.Lower
module RA = Artemis_codegen.Resource_assign
module Retime = Artemis_codegen.Retime
module Cuda = Artemis_codegen.Cuda_emit
module Suite = Artemis_bench.Suite

let case name f = Alcotest.test_case name `Quick f
let dev = Artemis_gpu.Device.p100

let kernel_of bname = List.hd (Suite.kernels (Suite.find bname))

(* The automatic staging policy alone: no #assign overrides, no
   occupancy rationing. *)
let automatic k =
  RA.assign (Lower.lower dev k O.default) ~honor_user:false ~target_occupancy:None

let tests =
  ( "codegen",
    [
      case "pragma stream/block/unroll map to options" (fun () ->
          let pr =
            { A.empty_pragma with A.stream_dim = Some "k"; block = Some [ 32; 16 ];
              unroll = [ ("j", 2) ] }
          in
          let o = O.of_pragma [ "k"; "j"; "i" ] pr in
          (match o.scheme with
           | O.Force_stream (Some 0) -> ()
           | _ -> Alcotest.fail "stream dim wrong");
          Alcotest.(check bool) "block slowest-first" true
            (o.block = Some [| 1; 16; 32 |]);
          Alcotest.(check bool) "unroll j" true (o.unroll = Some [| 1; 2; 1 |]));
      case "pragma occupancy becomes target" (fun () ->
          let pr = { A.empty_pragma with A.occupancy = Some 0.5 } in
          let o = O.of_pragma [ "k"; "j"; "i" ] pr in
          Alcotest.(check (option (float 1e-9))) "target" (Some 0.5)
            o.target_occupancy);
      case "lowering honors the pragma block" (fun () ->
          let k = kernel_of "7pt-smoother" in
          let p = Lower.lower_with_pragma dev k O.default in
          Alcotest.(check bool) "block 1x16x32" true (p.Plan.block = [| 1; 16; 32 |]);
          match p.Plan.scheme with
          | Plan.Serial_stream 0 -> ()
          | _ -> Alcotest.fail "expected serial stream along k");
      case "global options disable staging" (fun () ->
          let k = kernel_of "7pt-smoother" in
          let p = Lower.lower dev k O.global_tiled in
          Alcotest.(check bool) "no placement" true (p.Plan.placement = []);
          Alcotest.(check bool) "tiled" true (p.Plan.scheme = Plan.Tiled));
      case "automatic assignment stages reused inputs only" (fun () ->
          let k = kernel_of "addsgd4" in
          let auto = automatic k in
          Alcotest.(check bool) "u staged" true
            (List.assoc_opt "u" auto = Some A.Shmem);
          Alcotest.(check bool) "1-D arrays not staged" true
            (List.assoc_opt "strx" auto = None);
          Alcotest.(check bool) "output not staged" true
            (List.assoc_opt "up" auto = None));
      case "intermediates of a fused kernel are staged" (fun () ->
          let k = kernel_of "7pt-smoother" in
          let fused = Artemis_fuse.Fusion.time_fuse k ~out:"out" ~inp:"in" ~f:2 in
          let auto = automatic fused in
          Alcotest.(check bool) "intermediate staged" true
            (List.exists (fun (a, pl) -> pl = A.Shmem && String.length a > 2
               && String.sub a 0 2 = "__") auto));
      case "user #assign overrides the automatic map" (fun () ->
          let k = kernel_of "addsgd4" in
          let p = Lower.lower dev k O.default in
          Alcotest.(check bool) "um demoted by user" true
            (Plan.placement_of p "um" = A.Gmem);
          Alcotest.(check bool) "u kept" true (Plan.placement_of p "u" = A.Shmem));
      case "honor_user_assign=false ignores #assign" (fun () ->
          let k = kernel_of "addsgd4" in
          let p = Lower.lower dev k { O.default with O.honor_user_assign = false } in
          Alcotest.(check bool) "um staged automatically" true
            (Plan.placement_of p "um" = A.Shmem));
      case "occupancy rationing demotes the least-read buffer" (fun () ->
          let k = kernel_of "rhs4center" in
          let base =
            Lower.lower dev k { O.default with O.honor_user_assign = false }
          in
          let before = List.filter (fun (_, pl) -> pl = A.Shmem) base.Plan.placement in
          let rationed =
            RA.assign { base with Plan.block = [| 1; 16; 16 |] } ~honor_user:false
              ~target_occupancy:(Some 0.25)
          in
          let after = List.filter (fun (_, pl) -> pl = A.Shmem) rationed in
          Alcotest.(check bool) "some demotion happened" true
            (List.length after < List.length before));
      case "retime decomposes additive statements" (fun () ->
          let k = kernel_of "27pt-smoother" in
          let dec = Retime.decompose_kernel k in
          let accums =
            List.length
              (List.filter (function A.Accum _ -> true | _ -> false) dec.I.body)
          in
          Alcotest.(check bool) "accumulations appear" true (accums >= 3));
      case "decomposition preserves FLOP count" (fun () ->
          List.iter
            (fun bname ->
              let k = kernel_of bname in
              let dec = Retime.decompose_kernel k in
              Alcotest.(check int) bname
                (Analysis.flops_per_point k)
                (Analysis.flops_per_point dec))
            [ "7pt-smoother"; "27pt-smoother"; "helmholtz"; "rhs4center" ]);
      case "retime applies only when homogenizable" (fun () ->
          let k27 = kernel_of "27pt-smoother" in
          Alcotest.(check bool) "27pt retimes" true
            (Retime.apply k27 ~dim_index:0 <> None);
          let k7 = kernel_of "7pt-smoother" in
          Alcotest.(check bool) "7pt does not (mixed-plane term)" true
            (Retime.apply k7 ~dim_index:0 = None));
      case "lowering with retime flags the plan" (fun () ->
          let k = kernel_of "27pt-smoother" in
          let p = Lower.lower dev k { O.default with O.retime = true } in
          Alcotest.(check bool) "retimed" true p.Plan.retime);
      case "cuda: kernel and launcher emitted" (fun () ->
          let k = kernel_of "7pt-smoother" in
          let p = Lower.lower_with_pragma dev k O.default in
          let src = Cuda.emit p in
          let has needle =
            let len_n = String.length needle and len_s = String.length src in
            let rec go i =
              i + len_n <= len_s && (String.sub src i len_n = needle || go (i + 1))
            in
            go 0
          in
          Alcotest.(check bool) "__global__" true (has "__global__");
          Alcotest.(check bool) "shared buffer" true (has "__shared__ double sh_in_c0");
          Alcotest.(check bool) "register planes" true (has "double in_reg_m1");
          Alcotest.(check bool) "syncthreads" true (has "__syncthreads()");
          Alcotest.(check bool) "host launcher" true (has "launch_jacobi7");
          Alcotest.(check bool) "grid dims" true (has "dim3 grid"));
      case "cuda: tiled version has no plane loop" (fun () ->
          let k = kernel_of "7pt-smoother" in
          let p = Lower.lower dev k O.global_tiled in
          let src = Cuda.emit p in
          let has needle =
            let len_n = String.length needle and len_s = String.length src in
            let rec go i =
              i + len_n <= len_s && (String.sub src i len_n = needle || go (i + 1))
            in
            go 0
          in
          Alcotest.(check bool) "no rotation" false (has "rotate plane window");
          Alcotest.(check bool) "guards present" true (has "if ("));
      (* sentinel comment keeping structure explicit *)
      case "cuda emission is deterministic" (fun () ->
          let k = kernel_of "helmholtz" in
          let p = Lower.lower_with_pragma dev k O.default in
          Alcotest.(check string) "stable" (Cuda.emit p) (Cuda.emit p));
      case "cuda: prefetch register emitted" (fun () ->
          let k = kernel_of "7pt-smoother" in
          let p = Lower.lower dev k { O.default with O.prefetch = true } in
          let src = Cuda.emit p in
          let has needle =
            let len_n = String.length needle and len_s = String.length src in
            let rec go i =
              i + len_n <= len_s && (String.sub src i len_n = needle || go (i + 1))
            in
            go 0
          in
          Alcotest.(check bool) "prefetch reg" true (has "_pf"));
    ] )
