(* Linter tests: one known-good and one known-bad program per diagnostic
   code, plus the pinned runs that keep the benchmark suite and the fuzz
   corpus Error-free. *)

module Lint = Artemis.Lint
module O = Artemis.Options

let case name f = Alcotest.test_case name `Quick f

let codes fs =
  List.sort_uniq compare (List.map (fun (f : Lint.finding) -> f.code) fs)

let assert_has code fs =
  if not (List.mem code (codes fs)) then
    Alcotest.failf "expected %s, got [%s]" code (String.concat "; " (codes fs))

let assert_not code fs =
  if List.mem code (codes fs) then
    Alcotest.failf "did not expect %s (all: [%s])" code
      (String.concat "; " (codes fs))

let assert_clean fs =
  if fs <> [] then
    Alcotest.failf "expected no findings, got [%s]" (String.concat "; " (codes fs))

let lint_prog src = Lint.lint_program (Artemis.parse_string src)

let plan_of ?(device = Artemis.Device.p100) ?(opts = O.default) src =
  let prog = Artemis.parse_string src in
  Artemis.Lower.lower_with_pragma device (Artemis.first_kernel prog) opts

let lint_plan ?device ?opts src = Lint.lint_plan (plan_of ?device ?opts src)

(* A table-driven pair: the bad program must report [code], the good one
   must report nothing at all (program level). *)
let prog_pair code ~bad ~good =
  [ case (code ^ " fires") (fun () -> assert_has code (lint_prog bad));
    case (code ^ " clean counterpart") (fun () -> assert_clean (lint_prog good)) ]

(* ------------------------------------------------------------------ *)
(* DSL / kernel level                                                  *)
(* ------------------------------------------------------------------ *)

let a103 =
  prog_pair "A103"
    ~bad:
      {|parameter L=8; iterator i; double u[L], v[L];
        stencil s0 (x, y) { x[i] = y[i]; } s0 (u, v); copyout u;|}
    ~good:
      {|parameter L=8; iterator i; double u[L], v[L]; copyin v;
        stencil s0 (x, y) { x[i] = y[i]; } s0 (u, v); copyout u;|}

(* A104 cannot be produced through [parse_string] — the checker rejects
   unknown intrinsics at parse time — so the test hand-builds the kernel
   a transform could produce. *)
let a104 =
  let module A = Artemis.Ast in
  let module I = Artemis.Instantiate in
  let kernel body =
    {
      I.kname = "handmade";
      body;
      iters = [ "i" ];
      domain = [| 8 |];
      arrays = [ ("u", [| 8 |]); ("v", [| 8 |]) ];
      scalars = [];
      assign = [];
      pragma = A.empty_pragma;
    }
  in
  let at shift = [ { A.iter = Some "i"; shift } ] in
  let read shift = A.Access ("v", at shift) in
  [ case "A104 fires on unknown intrinsic" (fun () ->
        let k =
          kernel [ A.Assign ("u", at 0, A.Call ("sincos", [ read 0 ])) ]
        in
        assert_has "A104" (Lint.lint_kernel k));
    case "A104 fires on wrong arity" (fun () ->
        let k = kernel [ A.Assign ("u", at 0, A.Call ("min", [ read 0 ])) ] in
        assert_has "A104" (Lint.lint_kernel k));
    case "A104 clean counterpart" (fun () ->
        let k =
          kernel
            [ A.Assign ("u", at 0, A.Call ("min", [ read (-1); read 1 ])) ]
        in
        assert_not "A104" (Lint.lint_kernel k)) ]

let a201 =
  prog_pair "A201"
    ~bad:
      {|parameter L=8, M=6; iterator i; double u[L], v[M]; copyin v;
        stencil s0 (x, y) { x[i] = y[i]; } s0 (u, v); copyout u;|}
    ~good:
      {|parameter L=8, M=8; iterator i; double u[L], v[M]; copyin v;
        stencil s0 (x, y) { x[i] = y[i]; } s0 (u, v); copyout u;|}

let a202 =
  prog_pair "A202"
    ~bad:
      {|parameter L=2; iterator i; double u[L], v[L]; copyin v;
        stencil s0 (x, y) { x[i] = 0.5 * (y[i-1] + y[i+1]); }
        s0 (u, v); copyout u;|}
    ~good:
      {|parameter L=8; iterator i; double u[L], v[L]; copyin v;
        stencil s0 (x, y) { x[i] = 0.5 * (y[i-1] + y[i+1]); }
        s0 (u, v); copyout u;|}

let a203 =
  [ case "A203 fires" (fun () ->
        assert_has "A203"
          (lint_prog
             {|parameter L=16; iterator i; double out[L], tmp[L], inp[L];
               copyin inp;
               stencil s0 (y, g, x) { g[i] = y[i]; x[i] = g[i+1] + g[i-1]; }
               s0 (inp, tmp, out); copyout out;|}));
    case "A203 clean counterpart" (fun () ->
        assert_clean
          (lint_prog
             {|parameter L=16; iterator i; double out[L], tmp[L], inp[L];
               copyin inp;
               stencil s0 (y, g, x) { g[i] = y[i+1]; x[i] = g[i]; }
               s0 (inp, tmp, out); copyout out;|})) ]

let a301 =
  prog_pair "A301"
    ~bad:
      {|parameter L=8; iterator i; double u[L], v[L]; copyin v;
        stencil s0 (x, y) { double t = y[i]; x[i] = y[i]; }
        s0 (u, v); copyout u;|}
    ~good:
      {|parameter L=8; iterator i; double u[L], v[L]; copyin v;
        stencil s0 (x, y) { double t = y[i]; x[i] = t; }
        s0 (u, v); copyout u;|}

let a302 =
  prog_pair "A302"
    ~bad:
      {|parameter L=8; iterator i; double u[L], v[L], z[L]; copyin v;
        stencil s0 (x, y) { x[i] = y[i]; } s0 (u, v); copyout u;|}
    ~good:
      {|parameter L=8; iterator i; double u[L], v[L]; copyin v;
        stencil s0 (x, y) { x[i] = y[i]; } s0 (u, v); copyout u;|}

let a303 =
  prog_pair "A303"
    ~bad:
      {|parameter L=8; iterator i; double u[L], v[L], s; copyin v, s;
        stencil s0 (x, y, w) { x[i] = y[i]; } s0 (u, v, s); copyout u;|}
    ~good:
      {|parameter L=8; iterator i; double u[L], v[L], s; copyin v, s;
        stencil s0 (x, y, w) { x[i] = w * y[i]; } s0 (u, v, s); copyout u;|}

let a304 =
  prog_pair "A304"
    ~bad:
      {|parameter L=8; iterator i; double u[L], v[L]; copyin v;
        stencil s0 (x, y) { x[i] = y[i]; }
        stencil s1 (x, y) { x[i] = y[i] * 2.0; }
        s0 (u, v); copyout u;|}
    ~good:
      {|parameter L=8; iterator i; double u[L], v[L], w[L]; copyin v;
        stencil s0 (x, y) { x[i] = y[i]; }
        stencil s1 (x, y) { x[i] = y[i] * 2.0; }
        s0 (u, v); s1 (w, u); copyout u, w;|}

let a305 =
  prog_pair "A305"
    ~bad:
      {|parameter L=8; iterator i; double u[L], v[L], w[L]; copyin v;
        stencil s0 (x, y) { x[i] = y[i]; }
        s0 (u, v); s0 (w, v); copyout u;|}
    ~good:
      {|parameter L=8; iterator i; double u[L], v[L], w[L]; copyin v;
        stencil s0 (x, y) { x[i] = y[i]; }
        s0 (u, v); s0 (w, v); copyout u, w;|}

(* ------------------------------------------------------------------ *)
(* Plan level                                                          *)
(* ------------------------------------------------------------------ *)

(* A DAG kernel whose intermediate is consumed at an in-plane offset:
   shared staging of [tmp] makes the read a cross-thread hazard. *)
let hazard_src =
  {|parameter L=32, M=32; iterator j, i;
    double inp[L,M], tmp[L,M], out[L,M]; copyin inp;
    stencil s0 (y, g, x) { g[j][i] = y[j][i]; x[j][i] = g[j][i+1] + g[j][i-1]; }
    s0 (inp, tmp, out); copyout out;|}

let hazard_war_src =
  {|parameter L=32, M=32; iterator j, i;
    double inp[L,M], tmp[L,M], out[L,M]; copyin inp;
    stencil s0 (y, g, x) {
      g[j][i] = y[j][i];
      x[j][i] = g[j][i+1];
      g[j][i] = y[j][i] * 2.0;
    }
    s0 (inp, tmp, out); copyout out;|}

let hazard_free_src =
  {|parameter L=32, M=32; iterator j, i;
    double inp[L,M], tmp[L,M], out[L,M]; copyin inp;
    stencil s0 (y, g, x) { g[j][i] = y[j][i]; x[j][i] = g[j][i]; }
    s0 (inp, tmp, out); copyout out;|}

let a101 =
  [ case "A101 fires" (fun () -> assert_has "A101" (lint_plan hazard_src));
    case "A101 clean counterpart" (fun () ->
        assert_not "A101" (lint_plan hazard_free_src)) ]

let a102 =
  [ case "A102 fires" (fun () -> assert_has "A102" (lint_plan hazard_war_src));
    case "A102 clean counterpart" (fun () ->
        assert_not "A102" (lint_plan hazard_src)) ]

let jacobi3d_src =
  {|parameter L=64, M=64, N=64; iterator k, j, i;
    double out[L,M,N], inp[L,M,N]; copyin inp;
    stencil s0 (x, y) {
      x[k][j][i] = y[k][j][i+1] + y[k][j][i-1] + y[k][j+1][i]
        + y[k][j-1][i] + y[k+1][j][i] + y[k-1][j][i] - 6.0 * y[k][j][i];
    }
    s0 (out, inp); copyout out;|}

let a401 =
  [ case "A401 fires" (fun () ->
        (* 96 threads/block can never fill the 2048-thread SM: 21 resident
           blocks leave occupancy at 0.984 < 1.0 at any register count. *)
        assert_has "A401"
          (lint_plan
             {|parameter L=64, M=64; iterator j, i;
               double u[L,M], v[L,M]; copyin v;
               #pragma block (96,1) occupancy 1.0
               stencil s0 (x, y) { x[j][i] = y[j][i]; }
               s0 (u, v); copyout u;|}));
    case "A401 clean counterpart" (fun () ->
        assert_not "A401"
          (lint_plan
             {|parameter L=64, M=64; iterator j, i;
               double u[L,M], v[L,M]; copyin v;
               #pragma block (128,1) occupancy 1.0
               stencil s0 (x, y) { x[j][i] = y[j][i]; }
               s0 (u, v); copyout u;|})) ]

let a402 =
  [ case "A402 fires" (fun () ->
        assert_has "A402"
          (lint_plan jacobi3d_src
             ~opts:{ O.default with O.max_regs = 32; unroll = Some [| 1; 1; 8 |] }));
    case "A402 clean counterpart" (fun () ->
        assert_not "A402" (lint_plan jacobi3d_src ~opts:O.default)) ]

let a403 =
  [ case "A403 fires" (fun () ->
        assert_has "A403"
          (lint_plan jacobi3d_src
             ~device:
               { Artemis.Device.p100 with Artemis.Device.shared_per_block = 256 }));
    case "A403 clean counterpart" (fun () ->
        assert_not "A403" (lint_plan jacobi3d_src)) ]

let a404 =
  [ case "A404 fires" (fun () ->
        (* Feasible at the 32-register step, but the plan's own register
           demand caps resident blocks below the 0.75 target. *)
        assert_has "A404"
          (lint_plan
             {|parameter L=64, M=64, N=64; iterator k, j, i;
               double out[L,M,N], inp[L,M,N]; copyin inp;
               #pragma occupancy 0.75
               stencil s0 (x, y) {
                 x[k][j][i] = y[k][j][i+1] + y[k][j][i-1] + y[k][j+1][i]
                   + y[k][j-1][i] + y[k+1][j][i] + y[k-1][j][i]
                   - 6.0 * y[k][j][i];
               }
               s0 (out, inp); copyout out;|}
             ~opts:
               { O.default with O.use_shared = false; unroll = Some [| 1; 1; 8 |] }));
    case "A404 clean counterpart" (fun () ->
        assert_not "A404"
          (lint_plan jacobi3d_src ~opts:{ O.default with O.use_shared = false })) ]

let a405 =
  [ case "A405 fires" (fun () ->
        assert_has "A405"
          (lint_plan jacobi3d_src
             ~opts:{ O.default with O.block = Some [| 1; 2; 1024 |] }));
    case "A405 clean counterpart" (fun () ->
        assert_not "A405" (lint_plan jacobi3d_src)) ]

let a501 =
  [ case "A501 fires" (fun () ->
        (* The fastest iterator indexes the slow dimension of [v]: lanes
           stride M elements apart. *)
        assert_has "A501"
          (lint_plan
             {|parameter L=32, M=32; iterator j, i;
               double u[L,M], v[L,M]; copyin v;
               stencil s0 (x, y) { x[j][i] = y[i][3]; }
               s0 (u, v); copyout u;|}
             ~opts:{ O.default with O.use_shared = false }));
    case "A501 clean counterpart" (fun () ->
        assert_not "A501"
          (lint_plan
             {|parameter L=32, M=32; iterator j, i;
               double u[L,M], v[L,M]; copyin v;
               stencil s0 (x, y) { x[j][i] = y[j][i]; }
               s0 (u, v); copyout u;|}
             ~opts:{ O.default with O.use_shared = false })) ]

let bank_src =
  {|parameter L=64, M=64; iterator j, i;
    double u[L,M], v[L,M]; copyin v;
    stencil s0 (x, y) { x[j][i] = y[j][i-1] + y[j][i+1]; }
    s0 (u, v); copyout u;|}

let a502 =
  [ case "A502 fires" (fun () ->
        (* Tile width 14 + halo 2 = 16 doubles: every row's column i maps
           to the same bank group. *)
        assert_has "A502"
          (lint_plan bank_src
             ~opts:
               { O.default with O.scheme = O.Force_tiled; block = Some [| 4; 14 |] }));
    case "A502 clean counterpart" (fun () ->
        assert_not "A502"
          (lint_plan bank_src
             ~opts:
               { O.default with O.scheme = O.Force_tiled; block = Some [| 4; 16 |] })) ]

(* Gauss-Seidel: a uniform self-dependence with componentwise same-sign
   distances, schedulable by the wavefront executor. *)
let seidel_src =
  {|parameter L=12, M=12; iterator j, i;
    double u[L,M]; copyin u;
    stencil gs (x) {
      x[j][i] = 0.25 * (x[j][i-1] + x[j-1][i] + x[j][i+1] + x[j+1][i]);
    }
    gs (u); copyout u;|}

let a601 =
  [ case "A601 fires on a wavefront-scheduled self-dependence" (fun () ->
        let fs = lint_prog seidel_src in
        assert_has "A601" fs;
        assert_not "A602" fs;
        Alcotest.(check bool) "names the hyperplane" true
          (List.exists
             (fun (f : Lint.finding) ->
               f.code = "A601" && Util.contains ~sub:"hyperplane" f.message)
             fs));
    case "A601 clean counterpart (distinct buffers)" (fun () ->
        assert_clean
          (lint_prog
             {|parameter L=12, M=12; iterator j, i;
               double u[L,M], v[L,M]; copyin v;
               stencil jac (x, y) {
                 x[j][i] = 0.25 * (y[j][i-1] + y[j-1][i] + y[j][i+1] + y[j+1][i]);
               }
               jac (u, v); copyout u;|})) ]

let a602 =
  [ case "A602 fires on a mixed-sign self-dependence" (fun () ->
        (* Read distance (-1, +1): uniform, but tile-lexicographic order
           disagrees with point-lexicographic order — no hyperplane every
           executor can honour. *)
        let fs =
          lint_prog
            {|parameter L=12, M=12; iterator j, i;
              double u[L,M]; copyin u;
              stencil s0 (x) { x[j][i] = 0.5 * (x[j-1][i+1] + x[j][i]); }
              s0 (u); copyout u;|}
        in
        assert_has "A602" fs;
        assert_not "A601" fs);
    case "A602 fires on a position-dependent self-dependence" (fun () ->
        (* A transposed self-read cannot come from [parse_string] (the
           checker requires in-order iterators), so hand-build the kernel
           a transform could produce. *)
        let module A = Artemis.Ast in
        let module I = Artemis.Instantiate in
        let at l = List.map (fun (iter, shift) -> { A.iter = Some iter; shift }) l in
        let k =
          {
            I.kname = "transposed";
            body =
              [ A.Assign
                  ("u", at [ ("j", 0); ("i", 0) ],
                   A.Access ("u", at [ ("i", 0); ("j", 0) ])) ];
            iters = [ "j"; "i" ];
            domain = [| 8; 8 |];
            arrays = [ ("u", [| 8; 8 |]) ];
            scalars = [];
            assign = [];
            pragma = A.empty_pragma;
          }
        in
        assert_has "A602" (Lint.lint_kernel k));
    case "A602 clean counterpart (same-sign Gauss-Seidel)" (fun () ->
        assert_not "A602" (lint_prog seidel_src)) ]

(* ------------------------------------------------------------------ *)
(* Semantic wrapping, rendering, catalog                               *)
(* ------------------------------------------------------------------ *)

let misc =
  [ case "rendering is byte-stable under finding order and duplication"
      (fun () ->
        (* Findings from several analyses concatenated in any order (with
           exact duplicates) must render identically: report and JSON
           sort by (phase, code, location) and dedupe. *)
        let src =
          {|parameter L=8; iterator i; double u[L], v[1]; copyin v;
            stencil s0 (x, y) { x[i] = y[i+1]; } s0 (u, v); copyout u;|}
        in
        let fs = lint_prog src @ lint_plan hazard_src in
        let shuffled = List.rev fs @ fs in
        Alcotest.(check string) "report stable" (Lint.report fs)
          (Lint.report shuffled);
        Alcotest.(check string) "json stable"
          (Artemis.Json.to_string (Lint.findings_to_json fs))
          (Artemis.Json.to_string (Lint.findings_to_json shuffled)));
    case "A001 wraps checker output" (fun () ->
        let ds =
          match
            Artemis.Frontend.program
              {|parameter L=8, L=9; iterator i; double u[L];
                stencil s0 (x) { x[i] = x[i]; } s0 (u); copyin nosuch;|}
          with
          | Error ds -> ds
          | Ok _ -> Alcotest.fail "expected semantic errors"
        in
        Alcotest.(check bool) "multiple violations" true (List.length ds >= 2);
        let fs = Lint.semantic_findings ~location:"p.stc" ds in
        Alcotest.(check bool) "located" true
          (List.for_all (fun f -> f.Lint.location = "p.stc") fs);
        assert_has "A001" fs;
        Alcotest.(check bool) "all errors" true (List.exists (fun f -> f.Lint.severity = Lint.Error) fs));
    case "catalog has >= 8 distinct codes" (fun () ->
        let cs = List.map (fun (c, _, _) -> c) Lint.catalog in
        Alcotest.(check bool) "count" true (List.length cs >= 8);
        Alcotest.(check int) "unique" (List.length cs)
          (List.length (List.sort_uniq compare cs)));
    case "every reportable code is catalogued" (fun () ->
        let catalogued = List.map (fun (c, _, _) -> c) Lint.catalog in
        let reported =
          codes
            (Lint.semantic_findings ~location:"program"
               [ { Artemis.Diagnostic.phase = Semantic; line = None; message = "m" } ]
            @ lint_prog
                {|parameter L=2; iterator i; double u[L], v[L], z[L];
                  stencil s0 (x, y, w) { double t = y[i]; x[i] = y[i-1] + y[i+1]; }
                  stencil s1 (x, y, w) { x[i] = y[i]; }
                  s0 (u, v, u); copyout u;|}
            @ lint_plan hazard_war_src)
        in
        List.iter
          (fun c ->
            if not (List.mem c catalogued) then
              Alcotest.failf "code %s not in catalog" c)
          reported);
    case "report sorts errors first and counts" (fun () ->
        let fs =
          [ { Lint.code = "A203"; severity = Lint.Info; phase = Lint.Dsl;
              location = "kernel k"; message = "m1"; hint = "" };
            { Lint.code = "A103"; severity = Lint.Error; phase = Lint.Dsl;
              location = "kernel k"; message = "m2"; hint = "h" } ]
        in
        let r = Lint.report fs in
        Alcotest.(check string) "error first" "A103" (String.sub r 0 4);
        Alcotest.(check bool) "summary" true
          (Util.contains ~sub:"1 error(s), 0 warning(s), 1 info" r));
    case "empty report" (fun () ->
        Alcotest.(check string) "none" "no findings\n" (Lint.report []));
    case "json shape" (fun () ->
        let fs = lint_prog {|parameter L=2; iterator i; double u[L], v[L];
          copyin v;
          stencil s0 (x, y) { x[i] = y[i-1] + y[i+1]; } s0 (u, v); copyout u;|} in
        let j = Lint.findings_to_json fs in
        match Artemis.Json.member "errors" j with
        | Some (Artemis.Json.Int n) -> Alcotest.(check bool) "errors > 0" true (n > 0)
        | _ -> Alcotest.fail "missing errors field") ]

(* ------------------------------------------------------------------ *)
(* Pinned corpora: the suite and the fuzz stream stay Error-free        *)
(* ------------------------------------------------------------------ *)

let pinned =
  [ case "benchmark suite programs lint Error-free" (fun () ->
        List.iter
          (fun (b : Artemis.Suite.t) ->
            match Lint.errors (Lint.lint_program b.prog) with
            | [] -> ()
            | f :: _ ->
              Alcotest.failf "%s: %s" b.name (Lint.report [ f ]))
          Artemis.Suite.all);
    case "benchmark baseline plans lint Error-free" (fun () ->
        List.iter
          (fun (b : Artemis.Suite.t) ->
            List.iter
              (fun k ->
                let p =
                  Artemis.Lower.lower_with_pragma Artemis.Device.p100 k O.default
                in
                match Lint.errors (Lint.lint_plan p) with
                | [] -> ()
                | f :: _ ->
                  Alcotest.failf "%s: %s" b.name (Lint.report [ f ]))
              (Artemis.Suite.kernels b))
          Artemis.Suite.all);
    case "fuzz corpus with lint invariant stays clean" (fun () ->
        let s = Artemis_verify.Harness.run ~lint:true ~seed:42 ~cases:8 () in
        Alcotest.(check int) "findings" 0 (List.length s.findings)) ]

(* ------------------------------------------------------------------ *)
(* Validate round-trip and metric surfacing                             *)
(* ------------------------------------------------------------------ *)

module V = Artemis.Validate

(* The sum of every counter named [name] in the metrics snapshot, over
   all its label sets. *)
let counter_total name =
  let module Json = Artemis.Json in
  Option.value ~default:[]
    (Option.bind (Json.member "counters" (Artemis.Metrics.snapshot ())) Json.to_list_opt)
  |> List.filter (fun e -> Option.bind (Json.member "name" e) Json.to_string_opt = Some name)
  |> List.fold_left
       (fun acc e ->
         acc +. Option.value ~default:0.0 (Option.bind (Json.member "value" e) Json.to_float_opt))
       0.0

(* One value per constructor; the match below is exhaustive, so adding a
   violation without extending this list is a compile error. *)
let all_violations =
  [ V.Too_many_threads 2048; V.Bad_block_dim (0, 2000);
    V.Shared_overflow (65536, 49152); V.Regs_overflow (300, 255);
    V.Zero_occupancy "registers"; V.Bad_stream_dim 3; V.Bad_unroll (0, 99);
    V.Empty_tile 1; V.Bad_degree 0 ]

let expected_tag = function
  | V.Too_many_threads _ -> "too-many-threads"
  | V.Bad_block_dim _ -> "bad-block-dim"
  | V.Shared_overflow _ -> "shared-overflow"
  | V.Regs_overflow _ -> "regs-overflow"
  | V.Zero_occupancy _ -> "zero-occupancy"
  | V.Bad_stream_dim _ -> "bad-stream-dim"
  | V.Bad_unroll _ -> "bad-unroll"
  | V.Empty_tile _ -> "empty-tile"
  | V.Bad_degree _ -> "bad-degree"

let validate_cases =
  [ case "violation_tag round-trips every constructor" (fun () ->
        List.iter
          (fun v ->
            Alcotest.(check string) "tag" (expected_tag v) (V.violation_tag v);
            Alcotest.(check bool) "to_string non-empty" true
              (String.length (V.violation_to_string v) > 0))
          all_violations;
        let tags = List.map V.violation_tag all_violations in
        Alcotest.(check int) "tags unique" (List.length tags)
          (List.length (List.sort_uniq compare tags)));
    case "violations surface as tagged counters" (fun () ->
        let p =
          plan_of jacobi3d_src
            ~opts:{ O.default with O.block = Some [| 1; 2; 1024 |] }
        in
        let vs = V.violations p in
        Alcotest.(check bool) "invalid" true (vs <> []);
        let c =
          Artemis.Metrics.counter "validate.violations"
            ~labels:[ ("tag", V.violation_tag (List.hd vs)) ]
        in
        let before = Artemis.Metrics.counter_value c in
        ignore (V.violations p);
        Alcotest.(check bool) "counted" true
          (Artemis.Metrics.counter_value c -. before >= 1.0));
    case "launch_errors agrees with violations" (fun () ->
        let good = plan_of jacobi3d_src in
        let bad =
          plan_of jacobi3d_src
            ~opts:{ O.default with O.block = Some [| 1; 2; 1024 |] }
        in
        Alcotest.(check bool) "valid plan: none" true (Lint.launch_errors good = []);
        Alcotest.(check bool) "invalid plan: some" true (Lint.launch_errors bad <> []));
    case "tuner lint-pruning is visible in metrics" (fun () ->
        (* Five fused 7-point steps carry a wide halo: the larger phase-1
           blocks overflow shared memory (A403), so the tuner lint-prunes
           them and must count each one. *)
        let b = Artemis.Suite.find "7pt-smoother" in
        let pruned =
          Artemis.Metrics.counter "tuner.configs_lint_pruned" ~labels:[ ("code", "A403") ]
        in
        match List.find_map Artemis.Fusion.pingpong_of_item (Artemis.Instantiate.schedule b.prog) with
        | None -> Alcotest.fail "7pt-smoother has no ping-pong loop"
        | Some (_, k, out, inp) ->
          let fused = Artemis.Fusion.time_fuse k ~out ~inp ~f:5 in
          let p = Artemis.Lower.lower Artemis.Device.p100 fused O.default in
          let before = Artemis.Metrics.counter_value pruned in
          ignore (Artemis.Hierarchical.tune p);
          Alcotest.(check bool) "lint-pruned count rose" true
            (Artemis.Metrics.counter_value pruned > before)) ]

(* ------------------------------------------------------------------ *)
(* Affine dataflow backed codes (A7xx)                                 *)
(* ------------------------------------------------------------------ *)

let a701 =
  prog_pair "A701"
    ~bad:
      {|parameter L=8; iterator i; double u[L], v[1]; copyin v;
        stencil s0 (x, y) { x[i] = y[i+1]; } s0 (u, v); copyout u;|}
    ~good:
      {|parameter L=8; iterator i; double u[L], v[9]; copyin v;
        stencil s0 (x, y) { x[i] = y[i+1]; } s0 (u, v); copyout u;|}

let a702 =
  prog_pair "A702"
    ~bad:
      (* s0's guarded write covers only u[1..7]; s1 then reads u[0]. *)
      {|parameter L=8; iterator i; double u[L], v[L], w[L]; copyin v;
        stencil s0 (x, y) { x[i+1] = y[i]; }
        stencil s1 (x, y) { x[i] = y[i]; }
        s0 (u, v); s1 (w, u); copyout w;|}
    ~good:
      {|parameter L=8; iterator i; double u[L], v[L], w[L]; copyin v;
        stencil s0 (x, y) { x[i] = y[i]; }
        stencil s1 (x, y) { x[i] = y[i]; }
        s0 (u, v); s1 (w, u); copyout w;|}

let a703_bad_src =
  {|parameter L=8, M=8; iterator i, j; double u[L,M]; copyin u;
    stencil s0 (x) { x[i][j] = x[i-1][j+1]; } s0 (u); copyout u;|}

let a703_good_src =
  {|parameter L=8, M=8; iterator i, j; double u[L,M]; copyin u;
    stencil s0 (x) { x[i][j] = x[i-1][j-1]; } s0 (u); copyout u;|}

let a703 =
  [ case "A703 fires on a mixed-sign dependence under tile fan-out" (fun () ->
        assert_has "A703" (lint_plan a703_bad_src));
    case "A703 clean on a band-safe self-dependence" (fun () ->
        assert_not "A703" (lint_plan a703_good_src));
    case "static_plan_errors exposes only Error-level A7xx" (fun () ->
        let errs = Lint.static_plan_errors (plan_of a703_bad_src) in
        Alcotest.(check bool) "nonempty" true (errs <> []);
        List.iter
          (fun (f : Lint.finding) ->
            Alcotest.(check string) "code" "A703" f.code;
            Alcotest.(check bool) "severity" true (f.severity = Lint.Error))
          errs;
        Alcotest.(check (list int)) "clean counterpart" []
          (List.map (fun _ -> 0)
             (Lint.static_plan_errors (plan_of a703_good_src))));
    case "tuner static-pruning is visible in metrics" (fun () ->
        let before = counter_total "tuner.configs_static_pruned" in
        let k = Artemis.first_kernel (Artemis.parse_string a703_bad_src) in
        let p = Artemis.Lower.lower Artemis.Device.p100 k O.default in
        (match Artemis.Hierarchical.tune p with
         | _ -> ()
         | exception _ -> ());
        Alcotest.(check bool) "static-pruned candidates counted" true
          (counter_total "tuner.configs_static_pruned" > before)) ]

let tests =
  ( "lint",
    a103 @ a104 @ a201 @ a202 @ a203 @ a301 @ a302 @ a303 @ a304 @ a305 @ a101 @ a102
    @ a401 @ a402 @ a403 @ a404 @ a405 @ a501 @ a502 @ a601 @ a602 @ a701 @ a702
    @ a703 @ misc @ pinned @ validate_cases )
