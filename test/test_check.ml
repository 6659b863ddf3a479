(* Semantic-checker tests: each malformed program must be rejected with a
   diagnostic; the well-formed corpus must pass. *)

open Artemis_dsl

let case name f = Alcotest.test_case name `Quick f

let check_ok src =
  match Frontend.program src with
  | Ok _ -> ()
  | Error ds -> Alcotest.failf "rejected: %s" (Diagnostic.render "<test>" (List.hd ds))

(* [src] parses, and the check rejects it with semantic diagnostics. *)
let check_fails name src =
  case name (fun () ->
      match Frontend.program src with
      | Error (_ :: _ as ds) ->
        Alcotest.(check bool) "semantic" true
          (List.for_all (fun (d : Diagnostic.t) -> d.phase = Semantic && d.line = None) ds)
      | Error [] | Ok _ -> Alcotest.fail "expected semantic errors")

let tests =
  ( "check",
    [
      case "valid program passes" (fun () ->
          check_ok
            {|parameter L=8; iterator k, j, i;
              double u[L,L,L], v[L,L,L], s;
              copyin u, v, s;
              stencil s0 (x, y, w) { x[k][j][i] = w * y[k][j][i+1]; }
              s0 (u, v, s);
              copyout u;|});
      check_fails "duplicate parameter"
        {|parameter L=8, L=9; iterator i; double u[L];
          stencil s0 (x) { x[i] = x[i]; } s0 (u);|};
      check_fails "duplicate iterator"
        {|parameter L=8; iterator i, i; double u[L];
          stencil s0 (x) { x[i] = x[i]; } s0 (u);|};
      check_fails "duplicate declaration"
        {|parameter L=8; iterator i; double u[L], u[L];
          stencil s0 (x) { x[i] = x[i]; } s0 (u);|};
      check_fails "undeclared size parameter"
        {|iterator i; double u[Z]; stencil s0 (x) { x[i] = x[i]; } s0 (u);|};
      check_fails "zero extent from a parameter"
        {|parameter L=0; iterator i; double u[L]; stencil s0 (x) { x[i] = x[i]; } s0 (u);|};
      check_fails "negative extent from a parameter"
        {|parameter L=-3; iterator i; double u[L]; stencil s0 (x) { x[i] = x[i]; } s0 (u);|};
      case "element counts are bounded by 2^53" (fun () ->
          let src iters n =
            Printf.sprintf
              "parameter L=%d; iterator %s; double u[%s], v[%s];\n\
               stencil s0 (x, y) { x[%s] = y[%s]; } s0 (u, v);"
              n (String.concat ", " iters)
              (String.concat ", " (List.map (fun _ -> "L") iters))
              (String.concat ", " (List.map (fun _ -> "L") iters))
              (String.concat "][" iters) (String.concat "][" iters)
          in
          List.iter
            (fun (iters, fits, over) ->
              check_ok (src iters fits);
              match Frontend.program (src iters over) with
              | Error ds ->
                Alcotest.(check (list string)) "both arrays"
                  [ "array u has more than 2^53 elements"; "array v has more than 2^53 elements" ]
                  (List.map (fun (d : Diagnostic.t) -> d.message) ds)
              | Ok _ -> Alcotest.failf "%d^%d elements accepted" over (List.length iters))
            [ ([ "i" ], 1 lsl 53, (1 lsl 53) + 1);
              ([ "j"; "i" ], 94_906_265, 94_906_266);
              ([ "k"; "j"; "i" ], 208_063, 208_064) ]);
      check_fails "program launching no stencil"
        {|parameter L=8; iterator i; double u[L], v[L];
          stencil s0 (x, y) { x[i] = y[i]; } swap (u, v);|};
      check_fails "stencil writing no array"
        {|parameter L=8; iterator i; double u[L], v[L];
          stencil s0 (x, y) { double t = y[i]; } s0 (u, v);|};
      check_fails "output rank above the iterator count"
        {|parameter L=8; iterator i; double u[L,L], v[L,L];
          stencil s0 (x, y) { x[0][i] = y[0][i]; } s0 (u, v);|};
      check_fails "copyin of undeclared name"
        {|parameter L=8; iterator i; double u[L]; copyin nosuch;
          stencil s0 (x) { x[i] = x[i]; } s0 (u);|};
      check_fails "copyout of undeclared name"
        {|parameter L=8; iterator i; double u[L];
          stencil s0 (x) { x[i] = x[i]; } s0 (u); copyout nosuch;|};
      check_fails "unknown name in body"
        {|parameter L=8; iterator i; double u[L];
          stencil s0 (x) { x[i] = y[i]; } s0 (u);|};
      check_fails "rank mismatch within body"
        {|parameter L=8; iterator k, j, i; double u[L,L,L];
          stencil s0 (x) { x[k][j][i] = x[i]; } s0 (u);|};
      check_fails "scalar used as array"
        {|parameter L=8; iterator i; double u[L], s;
          stencil s0 (x, w) { x[i] = w[i]; } s0 (u, s);|};
      check_fails "undeclared iterator in index"
        {|parameter L=8; iterator i; double u[L];
          stencil s0 (x) { x[i] = x[z]; } s0 (u);|};
      check_fails "iterators out of order in access"
        {|parameter L=8; iterator k, j, i; double u[L,L,L];
          stencil s0 (x) { x[k][j][i] = x[i][j][k]; } s0 (u);|};
      check_fails "repeated iterator in access"
        {|parameter L=8; iterator k, j, i; double u[L,L,L];
          stencil s0 (x) { x[k][j][i] = x[k][k][i]; } s0 (u);|};
      check_fails "unknown intrinsic"
        {|parameter L=8; iterator i; double u[L];
          stencil s0 (x) { x[i] = sinh(x[i]); } s0 (u);|};
      check_fails "intrinsic arity"
        {|parameter L=8; iterator i; double u[L];
          stencil s0 (x) { x[i] = min(x[i]); } s0 (u);|};
      check_fails "call to undefined stencil"
        {|parameter L=8; iterator i; double u[L];
          stencil s0 (x) { x[i] = x[i]; } s1 (u);|};
      check_fails "call arity mismatch"
        {|parameter L=8; iterator i; double u[L];
          stencil s0 (x) { x[i] = x[i]; } s0 (u, u);|};
      check_fails "call with undeclared actual"
        {|parameter L=8; iterator i; double u[L];
          stencil s0 (x) { x[i] = x[i]; } s0 (w);|};
      check_fails "array rank mismatch at call"
        {|parameter L=8; iterator k, j, i; double u[L,L,L], v[L];
          stencil s0 (x) { x[k][j][i] = x[k][j][i]; } s0 (v);|};
      check_fails "#assign of non-formal"
        {|parameter L=8; iterator i; double u[L];
          stencil s0 (x) { #assign shmem (zz); x[i] = x[i]; } s0 (u);|};
      check_fails "swap of non-array"
        {|parameter L=8; iterator i; double u[L], s;
          stencil s0 (x) { x[i] = x[i]; }
          iterate 2 { s0 (u); swap (u, s); }|};
      check_fails "redefined temporary"
        {|parameter L=8; iterator i; double u[L], w;
          stencil s0 (x, v) { double t = v; double t = v; x[i] = t; } s0 (u, w);|};
      case "check_all accumulates every violation" (fun () ->
          let src =
            {|parameter L=8, L=9; iterator i; double u[L]; copyin nosuch;
              stencil s0 (x) { x[i] = x[i]; } s0 (u); copyout missing;|}
          in
          let prog = Parser.parse_program src in
          let msgs = List.map (fun (d : Diagnostic.t) -> d.message) (Check.check_all prog) in
          Alcotest.(check bool) "several" true (List.length msgs >= 3);
          (* The front end returns every violation, in the same order. *)
          match Frontend.program src with
          | Error ds ->
            Alcotest.(check (list string)) "all" msgs
              (List.map (fun (d : Diagnostic.t) -> d.message) ds)
          | Ok _ -> Alcotest.fail "expected semantic errors");
      case "check_all is empty on a valid program" (fun () ->
          let prog =
            Parser.parse_program
              {|parameter L=8; iterator i; double u[L];
                stencil s0 (x) { x[i] = x[i]; } s0 (u); copyout u;|}
          in
          Alcotest.(check int) "none" 0 (List.length (Check.check_all prog)));
      case "benchmark suite programs all pass" (fun () ->
          List.iter
            (fun (b : Artemis_bench.Suite.t) -> Util.assert_checked b.prog)
            Artemis_bench.Suite.all);
    ] )
