(* Fusion and fission tests: semantic preservation (checked through the
   reference executor), structure of generated candidates, and the DSL
   spec emission of Figure 3c. *)

open Artemis_dsl
module A = Ast
module I = Instantiate
module E = Artemis_exec
module Fusion = Artemis_fuse.Fusion
module Fission = Artemis_fuse.Fission
module Suite = Artemis_bench.Suite

let case name f = Alcotest.test_case name `Quick f

(* Reference-execute [steps] as-is and with the ping-pong loop replaced by
   fused launches; compare the final buffer on the deep interior. *)
let check_fusion_semantics ?(n = 14) bname ~schedule =
  let b = Suite.at_size n (Suite.find bname) in
  let prog = b.prog in
  Util.assert_checked prog;
  let scalars = E.Reference.scalars_of_program prog in
  let sched = I.schedule prog in
  let pp =
    match List.find_map Fusion.pingpong_of_item sched with
    | Some pp -> pp
    | None -> Alcotest.fail "no ping-pong loop"
  in
  let t, _, _, inp = pp in
  Alcotest.(check int) "schedule covers T" t (List.fold_left ( + ) 0 schedule);
  let plain = E.Reference.store_of_program prog in
  E.Reference.run_schedule plain ~scalars sched;
  let fused_sched = Fusion.fuse_pingpong pp ~schedule in
  let fused = E.Reference.store_of_program prog in
  E.Reference.run_schedule fused ~scalars fused_sched;
  (* swap parity: plain does t swaps, fused does |schedule| swaps; compare
     the buffer holding the final result after the last swap (inp). *)
  let margin = t + 2 in
  let diff =
    E.Grid.max_abs_diff_interior ~margin
      (E.Reference.find_array plain inp)
      (E.Reference.find_array fused inp)
  in
  if diff > 1e-12 then Alcotest.failf "fused differs by %g on deep interior" diff

let curv_kernel ?(n = 12) () =
  List.hd (Suite.kernels (Suite.at_size n (Suite.find "rhs4sgcurv")))

(* Execute a kernel list sequentially with the reference executor. *)
let run_parts prog parts =
  let store = E.Reference.store_of_program prog in
  let scalars = E.Reference.scalars_of_program prog in
  List.iter (fun k -> E.Reference.run_kernel store ~scalars k) parts;
  store

let tests =
  ( "fuse",
    [
      case "time_fuse f=1 is the kernel itself" (fun () ->
          let k = List.hd (Suite.kernels (Suite.at_size 8 (Suite.find "7pt-smoother"))) in
          let fused = Fusion.time_fuse k ~out:"out" ~inp:"in" ~f:1 in
          Alcotest.(check int) "same body" (List.length k.body)
            (List.length fused.body));
      case "time_fuse f=3 triples the body and adds 2 intermediates" (fun () ->
          let k = List.hd (Suite.kernels (Suite.at_size 8 (Suite.find "7pt-smoother"))) in
          let fused = Fusion.time_fuse k ~out:"out" ~inp:"in" ~f:3 in
          Alcotest.(check int) "body x3" (3 * List.length k.body)
            (List.length fused.body);
          Alcotest.(check int) "arrays +2" (List.length k.arrays + 2)
            (List.length fused.arrays));
      case "fused 7pt x2 equals two reference sweeps (deep interior)" (fun () ->
          check_fusion_semantics "7pt-smoother" ~schedule:[ 2; 2; 2; 2; 2; 2 ]);
      case "fused 7pt x3+x1 mix equals reference" (fun () ->
          check_fusion_semantics "7pt-smoother" ~schedule:[ 3; 3; 3; 3 ]);
      case "fused 27pt equals reference" (fun () ->
          check_fusion_semantics "27pt-smoother" ~schedule:[ 4; 4; 4 ]);
      case "fused helmholtz (order 2) equals reference" (fun () ->
          check_fusion_semantics ~n:20 "helmholtz" ~schedule:[ 2; 2; 2; 2; 2; 2 ]);
      case "fused denoise DAG equals reference" (fun () ->
          check_fusion_semantics "denoise" ~schedule:[ 2; 2; 2; 2; 2; 2 ]);
      case "pingpong detection" (fun () ->
          let b = Suite.at_size 8 (Suite.find "7pt-smoother") in
          match List.find_map Fusion.pingpong_of_item (I.schedule b.prog) with
          | Some (12, _, "out", "in") -> ()
          | _ -> Alcotest.fail "pattern not recognized");
      case "pingpong rejects a body writing both exchange buffers" (fun () ->
          (* Regression: such a body was silently treated as a valid
             ping-pong even though neither buffer is a pure sweep input. *)
          let b = Suite.at_size 8 (Suite.find "7pt-smoother") in
          match I.schedule b.prog with
          | [ I.Repeat (t, ([ I.Launch k; I.Exchange (_, inp) ] as items)) ] ->
            let idx =
              match
                List.find_map
                  (function A.Assign (_, idx, _) -> Some idx | _ -> None)
                  k.body
              with
              | Some idx -> idx
              | None -> Alcotest.fail "no assignment in sweep body"
            in
            Alcotest.(check bool) "intact loop accepted" true
              (Fusion.pingpong_of_item (I.Repeat (t, items)) <> None);
            let k' = { k with I.body = k.body @ [ A.Assign (inp, idx, A.Const 0.0) ] } in
            let item' =
              I.Repeat (t, [ I.Launch k'; I.Exchange ("out", inp) ])
            in
            Alcotest.(check bool) "ambiguous loop rejected" true
              (Fusion.pingpong_of_item item' = None)
          | _ -> Alcotest.fail "unexpected schedule shape");
      case "pingpong rejects a body that never reads the exchanged input"
        (fun () ->
          let b = Suite.at_size 8 (Suite.find "7pt-smoother") in
          match I.schedule b.prog with
          | [ I.Repeat (t, [ I.Launch k; I.Exchange (out, inp) ]) ] ->
            let idx =
              match
                List.find_map
                  (function A.Assign (_, idx, _) -> Some idx | _ -> None)
                  k.body
              with
              | Some idx -> idx
              | None -> Alcotest.fail "no assignment in sweep body"
            in
            let k' = { k with I.body = [ A.Assign (out, idx, A.Const 1.0) ] } in
            let item' = I.Repeat (t, [ I.Launch k'; I.Exchange (out, inp) ]) in
            Alcotest.(check bool) "input-blind loop rejected" true
              (Fusion.pingpong_of_item item' = None)
          | _ -> Alcotest.fail "unexpected schedule shape");
      case "trivial fission: one part per output, all spill-relevant temps
            replicated" (fun () ->
          let k = curv_kernel () in
          let parts = Fission.trivial k in
          Alcotest.(check int) "3 outputs -> 3 parts" 3 (List.length parts);
          List.iter
            (fun (sub : I.kernel) ->
              let temps =
                List.filter (function A.Decl_temp _ -> true | _ -> false) sub.body
              in
              Alcotest.(check int) "12 shared temps replicated" 12
                (List.length temps))
            parts);
      case "trivial fission preserves semantics" (fun () ->
          let b = Suite.at_size 12 (Suite.find "rhs4sgcurv") in
          let k = List.hd (Suite.kernels b) in
          let whole = run_parts b.prog [ k ] in
          let split = run_parts b.prog (Fission.trivial k) in
          List.iter
            (fun out ->
              Alcotest.(check (float 1e-10)) out 0.0
                (E.Grid.max_abs_diff
                   (E.Reference.find_array whole out)
                   (E.Reference.find_array split out)))
            [ "uacc0"; "uacc1"; "uacc2" ]);
      case "trivial fission keeps accumulation chains with their output"
        (fun () ->
          let k = curv_kernel () in
          List.iter
            (fun (sub : I.kernel) ->
              (* every Accum in a part targets an array also Assigned there *)
              List.iter
                (fun st ->
                  match st with
                  | A.Accum (a, _, _) ->
                    Alcotest.(check bool) "assigned first" true
                      (List.exists
                         (function A.Assign (a', _, _) -> a' = a | _ -> false)
                         sub.body)
                  | _ -> ())
                sub.body)
            (Fission.trivial k));
      case "recompute fission bounds the halo" (fun () ->
          let b = Suite.at_size 12 (Suite.find "denoise") in
          let k = List.hd (Suite.kernels b) in
          let parts = Fission.recompute k in
          let bound =
            max 4
              (List.fold_left
                 (fun acc sub -> max acc (Analysis.stencil_order sub))
                 0 parts)
          in
          List.iter
            (fun sub ->
              Alcotest.(check bool) "halo bounded" true
                ((Artemis_ir.Kernel_facts.of_kernel sub).recompute_halo <= bound))
            parts);
      case "recompute fission preserves semantics" (fun () ->
          let b = Suite.at_size 12 (Suite.find "rhs4center") in
          let k = List.hd (Suite.kernels b) in
          let whole = run_parts b.prog [ k ] in
          let split = run_parts b.prog (Fission.recompute k) in
          List.iter
            (fun out ->
              Alcotest.(check (float 1e-10)) out 0.0
                (E.Grid.max_abs_diff
                   (E.Reference.find_array whole out)
                   (E.Reference.find_array split out)))
            [ "uacc0"; "uacc1"; "uacc2" ]);
      case "fission candidates emit parseable DSL (Figure 3c)" (fun () ->
          let k = curv_kernel () in
          let parts = Fission.trivial k in
          let prog = Fission.to_dsl k parts in
          Util.assert_checked prog;
          let printed = Pretty.program_to_string prog in
          let reparsed = Artemis.parse_string printed in
          Alcotest.(check int) "three stencils" 3 (List.length reparsed.stencils));
    ] )
