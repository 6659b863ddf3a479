(* Analysis tests: FLOP counting against Table I conventions, stencil
   order, offsets, extents for fused DAGs, homogenizability, folding. *)

open Artemis_dsl
module A = Ast
module B = Builder
module An = Analysis
module I = Instantiate

let case name f = Alcotest.test_case name `Quick f

let kernel_of_src ?(which = 0) src =
  let p = Parser.parse_program src in
  Check.check p;
  let rec launches = function
    | [] -> []
    | I.Launch k :: rest -> k :: launches rest
    | I.Exchange _ :: rest -> launches rest
    | I.Repeat (_, sub) :: rest -> launches sub @ launches rest
  in
  List.nth (launches (I.schedule p)) which

let jacobi_kernel () =
  kernel_of_src
    {|parameter L=16, M=16, N=16;
      iterator k, j, i;
      double in[L,M,N], out[L,M,N], a, b, h2inv;
      stencil jacobi (B, A, h2inv, a, b) {
        double c = b * h2inv;
        B[k][j][i] = a*A[k][j][i] - c*(A[k][j][i+1]
          + A[k][j][i-1] + A[k][j+1][i] + A[k][j-1][i] +
          A[k+1][j][i] + A[k-1][j][i] - A[k][j][i]*6.0);
      }
      jacobi (out, in, h2inv, a, b);|}

let dag_kernel () =
  (* g is produced and consumed at offset: recompute halo 1. *)
  kernel_of_src
    {|parameter L=16; iterator k, j, i;
      double u[L,L,L], g[L,L,L], out[L,L,L];
      stencil dag (O, G, U) {
        G[k][j][i] = U[k][j][i+1] - U[k][j][i-1];
        O[k][j][i] = G[k][j][i+1] + G[k][j][i-1] + U[k+2][j][i];
      }
      dag (out, g, u);|}

let tests =
  ( "analysis",
    [
      case "jacobi flops = 10 (Table I convention)" (fun () ->
          Alcotest.(check int) "flops" 10 (An.flops_per_point (jacobi_kernel ())));
      case "loop-invariant temp costs nothing" (fun () ->
          let st = A.Decl_temp ("t", A.Bin (A.Mul, A.Scalar_ref "a", A.Scalar_ref "b")) in
          Alcotest.(check int) "flops" 0 (An.flops_of_stmt st));
      case "array-dependent temp is counted" (fun () ->
          let st =
            A.Decl_temp ("t", A.Bin (A.Mul, A.Scalar_ref "a", B.a3 "A" (0, 0, 0)))
          in
          Alcotest.(check int) "flops" 1 (An.flops_of_stmt st));
      case "accumulation costs one extra add" (fun () ->
          let e = A.Bin (A.Mul, A.Scalar_ref "a", B.a3 "A" (0, 0, 0)) in
          Alcotest.(check int) "accum - assign = 1" 1
            (An.flops_of_stmt (B.accum3 "B" e) - An.flops_of_stmt (B.assign3 "B" e)));
      case "jacobi order = 1" (fun () ->
          Alcotest.(check int) "order" 1 (An.stencil_order (jacobi_kernel ())));
      case "order ignores write offsets" (fun () ->
          let k = dag_kernel () in
          Alcotest.(check int) "order" 2 (An.stencil_order k));
      case "order per dim" (fun () ->
          let v = An.order_per_dim (jacobi_kernel ()) in
          Alcotest.(check bool) "1,1,1" true (v = [| 1; 1; 1 |]));
      case "io arrays" (fun () ->
          Alcotest.(check int) "2 arrays" 2 (An.io_array_count (jacobi_kernel ())));
      case "theoretical OI of jacobi" (fun () ->
          Alcotest.(check (float 1e-9)) "10/16" 0.625
            (An.theoretical_oi (jacobi_kernel ())));
      case "reads per point" (fun () ->
          let r = An.reads_per_point (jacobi_kernel ()) in
          Alcotest.(check (option int)) "in read 8x" (Some 8) (List.assoc_opt "in" r));
      case "distinct offsets dedupe" (fun () ->
          let offs = An.distinct_offsets (jacobi_kernel ()) in
          Alcotest.(check (option int)) "7 offsets" (Some 7)
            (Option.map List.length (List.assoc_opt "in" offs)));
      case "offset range along stream dim" (fun () ->
          let ranges = (Artemis_ir.Kernel_facts.of_kernel (jacobi_kernel ())).offset_ranges in
          Alcotest.(check (pair int int)) "(-1,1)" (-1, 1) (List.assoc "in" ranges).(0));
      case "required extents of DAG intermediate" (fun () ->
          let k = dag_kernel () in
          let exts = An.required_extents k in
          (match Hashtbl.find_opt exts "g" with
           | Some e -> Alcotest.(check bool) "g extent x = (-1,1)" true (e.(2) = (-1, 1))
           | None -> Alcotest.fail "no extent for g");
          match Hashtbl.find_opt exts "u" with
          | Some e ->
            (* u needed at g's extent + (-1,1) plus the direct read at k+2 *)
            Alcotest.(check bool) "u extent x = (-2,2)" true (e.(2) = (-2, 2));
            Alcotest.(check bool) "u extent z = (0,2)" true (e.(0) = (0, 2))
          | None -> Alcotest.fail "no extent for u");
      case "recompute halo of DAG" (fun () ->
          Alcotest.(check int) "halo 1" 1
            (Artemis_ir.Kernel_facts.of_kernel (dag_kernel ())).recompute_halo);
      case "recompute halo zero without intermediate reuse" (fun () ->
          Alcotest.(check int) "halo 0" 0
            (Artemis_ir.Kernel_facts.of_kernel (jacobi_kernel ())).recompute_halo);
      case "decompose_sum flattens with signs" (fun () ->
          let e = Parser.parse_expr_string "a - (b + cc) + d" in
          let terms = An.decompose_sum e in
          Alcotest.(check int) "4 terms" 4 (List.length terms);
          let signs = List.map fst terms in
          Alcotest.(check bool) "signs" true (signs = [ true; false; false; true ]));
      case "homogenizable single-plane term" (fun () ->
          let t = Parser.parse_expr_string "A[k-1][j][i] * A[k-1][j+1][i]" in
          Alcotest.(check (option int)) "shift -1" (Some (-1))
            (An.term_stream_shift [ "k"; "j"; "i" ] "k" t));
      case "mixed-plane term not homogenizable" (fun () ->
          let t = Parser.parse_expr_string "C[k+1][j][i] * A[k-1][j][i]" in
          Alcotest.(check (option int)) "none" None
            (An.term_stream_shift [ "k"; "j"; "i" ] "k" t));
      case "term without reads homogenizes at 0" (fun () ->
          let t = Parser.parse_expr_string "a * b" in
          Alcotest.(check (option int)) "zero" (Some 0)
            (An.term_stream_shift [ "k"; "j"; "i" ] "k" t));
      case "jacobi not retimable along k (mixed planes in one term)" (fun () ->
          Alcotest.(check bool) "not retimable" false
            (An.kernel_retimable (jacobi_kernel ()) "k"));
      case "plane-separated 27pt is retimable after decomposition" (fun () ->
          let b = Artemis_bench.Suite.find "27pt-smoother" in
          let k = List.hd (Artemis_bench.Suite.kernels b) in
          let dec = Artemis_codegen.Retime.decompose_kernel k in
          Alcotest.(check bool) "retimable" true (An.kernel_retimable dec "k"));
      case "foldable group detected" (fun () ->
          let k =
            kernel_of_src
              {|parameter L=16; iterator k, j, i;
                double p[L,L,L], q[L,L,L], o[L,L,L];
                stencil s0 (O, P, Q) {
                  O[k][j][i] = P[k][j][i+1]*Q[k][j][i+1] + P[k][j][i-1]*Q[k][j][i-1];
                }
                s0 (o, p, q);|}
          in
          match An.foldable_groups k with
          | [ (A.Mul, arrays) ] ->
            Alcotest.(check (list string)) "p,q" [ "p"; "q" ] (List.sort compare arrays)
          | _ -> Alcotest.fail "expected one Mul group");
      case "no folding when an array is read alone" (fun () ->
          let k =
            kernel_of_src
              {|parameter L=16; iterator k, j, i;
                double p[L,L,L], q[L,L,L], o[L,L,L];
                stencil s0 (O, P, Q) {
                  O[k][j][i] = P[k][j][i+1]*Q[k][j][i+1] + P[k][j][i-1];
                }
                s0 (o, p, q);|}
          in
          Alcotest.(check int) "no groups" 0 (List.length (An.foldable_groups k)));
    ] )
