(* Parser unit tests: concrete syntax, pragma clauses, #assign, errors,
   and pretty-printer round-trips. *)

open Artemis_dsl
module A = Ast

let case name f = Alcotest.test_case name `Quick f

let jacobi_src =
  {|
parameter L=512, M=512, N=512;
iterator k, j, i;
double in[L,M,N], out[L,M,N], a, b, h2inv;
copyin out, in, h2inv, a, b;
#pragma stream k block (32,16) unroll j=2
stencil jacobi (B, A, h2inv, a, b) {
  double c = b * h2inv;
  B[k][j][i] = a*A[k][j][i] - c*(A[k][j][i+1]
    + A[k][j][i-1] + A[k][j+1][i] + A[k][j-1][i] +
    A[k+1][j][i] + A[k-1][j][i] - A[k][j][i]*6.0);
}
jacobi (out, in, h2inv, a, b);
copyout out;
|}

let parse = Parser.parse_program

let expr = Parser.parse_expr_string

let tests =
  ( "parser",
    [
      case "listing 1 parses" (fun () ->
          let p = parse jacobi_src in
          Alcotest.(check int) "params" 3 (List.length p.params);
          Alcotest.(check (list string)) "iters" [ "k"; "j"; "i" ] p.iters;
          Alcotest.(check int) "decls" 5 (List.length p.decls);
          Alcotest.(check (list string)) "copyin"
            [ "out"; "in"; "h2inv"; "a"; "b" ] p.copyin;
          Alcotest.(check int) "stencils" 1 (List.length p.stencils);
          Alcotest.(check (list string)) "copyout" [ "out" ] p.copyout);
      case "pragma fields" (fun () ->
          let p = parse jacobi_src in
          let st = List.hd p.stencils in
          Alcotest.(check (option string)) "stream" (Some "k") st.pragma.stream_dim;
          Alcotest.(check (option (list int))) "block" (Some [ 32; 16 ]) st.pragma.block;
          Alcotest.(check bool) "unroll" true (st.pragma.unroll = [ ("j", 2) ]));
      case "occupancy clause" (fun () ->
          let p =
            parse
              {|iterator k, j, i; double a[4,4,4];
                #pragma occupancy 0.5
                stencil s0 (x) { x[k][j][i] = x[k][j][i]; }
                s0 (a);|}
          in
          let st = List.hd p.stencils in
          Alcotest.(check (option (float 1e-9))) "occupancy" (Some 0.5)
            st.pragma.occupancy);
      case "#assign clauses" (fun () ->
          let p =
            parse
              {|iterator k, j, i; double u[4,4,4], v[4,4,4], w[4,4,4];
                stencil s0 (x, y, z) {
                  #assign shmem (y, z), gmem (x);
                  x[k][j][i] = y[k][j][i] + z[k][j][i];
                }
                s0 (u, v, w);|}
          in
          let st = List.hd p.stencils in
          Alcotest.(check bool) "assign" true
            (st.assign = [ (A.Shmem, [ "y"; "z" ]); (A.Gmem, [ "x" ]) ]));
      case "iterate with swap" (fun () ->
          let p =
            parse
              {|iterator k, j, i; double u[4,4,4], v[4,4,4];
                stencil s0 (x, y) { x[k][j][i] = y[k][j][i]; }
                iterate 12 { s0 (u, v); swap (u, v); }|}
          in
          match p.main with
          | [ A.Iterate (12, [ A.Apply ("s0", [ "u"; "v" ]); A.Swap ("u", "v") ]) ] -> ()
          | _ -> Alcotest.fail "unexpected main structure");
      case "accumulation statement" (fun () ->
          let p =
            parse
              {|iterator k, j, i; double u[4,4,4], v[4,4,4];
                stencil s0 (x, y) { x[k][j][i] = y[k][j][i]; x[k][j][i] += y[k+1][j][i]; }
                s0 (u, v);|}
          in
          match (List.hd p.stencils).body with
          | [ A.Assign _; A.Accum _ ] -> ()
          | _ -> Alcotest.fail "expected assign then accum");
      case "negative and constant indices" (fun () ->
          match expr "A[0][j-2][i]" with
          | A.Access ("A", [ i0; i1; i2 ]) ->
            Alcotest.(check bool) "const" true (i0 = { A.iter = None; shift = 0 });
            Alcotest.(check bool) "j-2" true (i1 = { A.iter = Some "j"; shift = -2 });
            Alcotest.(check bool) "i" true (i2 = { A.iter = Some "i"; shift = 0 })
          | _ -> Alcotest.fail "expected access");
      case "operator precedence" (fun () ->
          match expr "a + b * cc" with
          | A.Bin (A.Add, A.Scalar_ref "a", A.Bin (A.Mul, _, _)) -> ()
          | _ -> Alcotest.fail "precedence wrong");
      case "left associativity of minus" (fun () ->
          match expr "a - b - cc" with
          | A.Bin (A.Sub, A.Bin (A.Sub, _, _), A.Scalar_ref "cc") -> ()
          | _ -> Alcotest.fail "associativity wrong");
      case "unary minus" (fun () ->
          match expr "-a * b" with
          | A.Bin (A.Mul, A.Neg (A.Scalar_ref "a"), A.Scalar_ref "b") -> ()
          | _ -> Alcotest.fail "unary minus binds tighter");
      case "intrinsic call" (fun () ->
          match expr "min(a, sqrt(b))" with
          | A.Call ("min", [ A.Scalar_ref "a"; A.Call ("sqrt", [ A.Scalar_ref "b" ]) ])
            -> ()
          | _ -> Alcotest.fail "call structure wrong");
      case "syntax error reports line" (fun () ->
          match parse "iterator k;\nstencil broken (" with
          | exception Diagnostic.Rejected [ { phase = Parse; line = Some line; _ } ] ->
            Alcotest.(check bool) "line >= 2" true (line >= 2)
          | _ -> Alcotest.fail "expected a syntax error");
      case "round-trip listing 1" (fun () ->
          let p = parse jacobi_src in
          let printed = Pretty.program_to_string p in
          let p2 = parse printed in
          Alcotest.(check bool) "round trip" true (p = p2));
      case "round-trip with iterate and assign" (fun () ->
          let src =
            {|parameter L=16;
iterator k, j, i;
double u[L,L,L], v[L,L,L], w;
copyin u, v, w;
stencil s0 (x, y, ww) {
#assign shmem (y), gmem (x);
x[k][j][i] = ww * y[k][j][i] + y[k][j][i+1] / 2.0;
x[k][j][i] += min(y[k-1][j][i], 3.5);
}
iterate 3 { s0 (u, v, w); swap (u, v); }
copyout u;
|}
          in
          let p = parse src in
          let p2 = parse (Pretty.program_to_string p) in
          Alcotest.(check bool) "round trip" true (p = p2));
      case "expression round-trip preserves structure" (fun () ->
          let e = expr "a * (b + cc) - d / (e1 - f)" in
          let e2 = expr (Pretty.expr_to_string e) in
          Alcotest.(check bool) "round trip" true (e = e2));
    ] )
