(* End-to-end driver tests over the Artemis facade: the Section VII flow,
   deep tuning, and the headline experiment directions (VIII-D, VIII-E). *)

module Suite = Artemis.Suite
module O = Artemis.Options

let case name f = Alcotest.test_case name `Quick f

let tests =
  ( "driver",
    [
      case "parse_string checks semantics" (fun () ->
          match Artemis.parse_string "iterator i; double u[Z];" with
          | exception Artemis.Diagnostic.Rejected ({ phase = Semantic; line = None; _ } :: _) -> ()
          | _ -> Alcotest.fail "expected a semantic diagnostic");
      case "optimize_kernel never loses to its baseline" (fun () ->
          List.iter
            (fun bname ->
              let k = List.hd (Suite.kernels (Suite.find bname)) in
              let r = Artemis.optimize_kernel k in
              Alcotest.(check bool) bname true (r.tuned.tflops >= r.baseline.tflops))
            [ "7pt-smoother"; "helmholtz"; "rhs4center" ]);
      case "register-pressured multi-output kernels get fission candidates"
        (fun () ->
          let k = List.hd (Suite.kernels (Suite.find "rhs4sgcurv")) in
          let r = Artemis.optimize_kernel k in
          Alcotest.(check bool) "candidates" true (r.fission_candidates <> []));
      case "single-output kernels never get fission candidates" (fun () ->
          let k = List.hd (Suite.kernels (Suite.find "7pt-smoother")) in
          let r = Artemis.optimize_kernel ~iterative:true k in
          Alcotest.(check (list int)) "none" []
            (List.map List.length r.fission_candidates));
      case "deep tuning: fusion helps then stops (Fig 4 cusp)" (fun () ->
          let b = Suite.find "7pt-smoother" in
          let dr = Artemis.deep_tune ~max_tile:5 b.prog in
          let per_sweep =
            List.map (fun (v : Artemis.Deep.version) -> v.time_per_sweep)
              dr.deep.versions
          in
          (match per_sweep with
           | t1 :: t2 :: _ -> Alcotest.(check bool) "2x1 beats 1x1" true (t2 < t1)
           | _ -> Alcotest.fail "too few versions");
          Alcotest.(check bool) "cusp within 5 (paper: <= 4)" true
            (dr.deep.cusp <= 5 && dr.deep.cusp >= 2);
          Alcotest.(check int) "schedule covers T=12" 12
            (List.fold_left ( + ) 0 dr.schedule));
      case "deep tuning rejects programs without a time loop" (fun () ->
          let b = Suite.find "hypterm" in
          match Artemis.deep_tune b.prog with
          | exception Invalid_argument _ -> ()
          | _ -> Alcotest.fail "expected Invalid_argument");
      case "VIII-D: trivial fission beats maxfuse for rhs4sgcurv" (fun () ->
          let k = List.hd (Suite.kernels (Suite.find "rhs4sgcurv")) in
          let maxfuse = (Artemis.optimize_kernel k).tuned in
          let parts = Artemis.Fission.trivial k in
          let time = ref 0.0 and flops = ref 0.0 in
          List.iter
            (fun sub ->
              let r = Artemis.optimize_kernel sub in
              time := !time +. r.tuned.time_s;
              flops := !flops +. r.tuned.counters.useful_flops)
            parts;
          let fission_tf = !flops /. !time /. 1e12 in
          Alcotest.(check bool) "fission wins clearly" true
            (fission_tf > 1.5 *. maxfuse.tflops));
      case "VIII-E: user assignment helps addsgd4" (fun () ->
          let k = List.hd (Suite.kernels (Suite.find "addsgd4")) in
          let without =
            (Artemis.optimize_kernel ~opts:{ O.default with O.honor_user_assign = false } k)
              .tuned.tflops
          in
          let with_ = (Artemis.optimize_kernel k).tuned.tflops in
          Alcotest.(check bool) "improvement" true (with_ > without));
      case "cuda_of produces a kernel for the tuned plan" (fun () ->
          let k = List.hd (Suite.kernels (Suite.at_size 64 (Suite.find "helmholtz"))) in
          let r = Artemis.optimize_kernel k in
          let src = Artemis.cuda_of r in
          Alcotest.(check bool) "has kernel" true
            (String.length src > 200));
      case "report renders with all sections" (fun () ->
          let k = List.hd (Suite.kernels (Suite.at_size 64 (Suite.find "7pt-smoother"))) in
          let r = Artemis.optimize_kernel ~iterative:true k in
          let report = Artemis.report_of r in
          List.iter
            (fun needle ->
              let has =
                let ln = String.length needle and ls = String.length report in
                let rec go i =
                  i + ln <= ls && (String.sub report i ln = needle || go (i + 1))
                in
                go 0
              in
              Alcotest.(check bool) needle true has)
            [ "stencil"; "baseline (from pragma)"; "tuned"; "tuning";
              "flops per point : 10"; "bottleneck"; "configurations measured" ]);
      case "first_kernel flattens time loops" (fun () ->
          let b = Suite.find "7pt-smoother" in
          let k = Artemis.first_kernel b.prog in
          Alcotest.(check string) "name" "jacobi7" k.Artemis.Instantiate.kname);
      (* lint and analyze share one findings function in the driver, so
         their exit codes must agree: non-zero iff any Error-level
         finding.  Pinned over a clean, a warning-only, and an
         Error-carrying program. *)
      case "lint and analyze agree on exit codes" (fun () ->
          Alcotest.(check bool) "artemisc built" true
            (Sys.file_exists Util.artemisc_exe);
          let status cmd path =
            let st, _, _ = Util.artemisc (cmd ^ " " ^ Filename.quote path) in
            st
          in
          List.iter
            (fun (label, errors_expected, src) ->
              let path = Filename.temp_file "artemis_cli" ".stc" in
              Fun.protect
                ~finally:(fun () -> Sys.remove path)
                (fun () ->
                  let oc = open_out path in
                  output_string oc src;
                  close_out oc;
                  let l = status "lint" path and a = status "analyze" path in
                  Alcotest.(check int) (label ^ ": analyze exit = lint exit") l a;
                  Alcotest.(check bool)
                    (label ^ ": non-zero iff errors")
                    errors_expected (l <> 0);
                  let lp = status "lint --plan" path
                  and ap = status "analyze --plan" path in
                  Alcotest.(check int)
                    (label ^ ": --plan exits agree")
                    lp ap))
            [
              ( "clean",
                false,
                {|parameter L=8; iterator i; double u[L], v[L]; copyin v;
                  stencil s0 (x, y) { x[i] = y[i]; } s0 (u, v); copyout u;|} );
              ( "warning-only",
                false,
                {|parameter L=8; iterator i; double u[L], v[L], w[L]; copyin v;
                  stencil s0 (x, y) { x[i+1] = y[i]; }
                  stencil s1 (x, y) { x[i] = y[i]; }
                  s0 (u, v); s1 (w, u); copyout w;|} );
              ( "error",
                true,
                {|parameter L=8; iterator i; double u[L], v[1]; copyin v;
                  stencil s0 (x, y) { x[i] = y[i+1]; } s0 (u, v); copyout u;|} );
            ]);
      case "malformed input is a located diagnostic with exit 1" (fun () ->
          List.iter
            (fun (src, expected) ->
              let path = Filename.temp_file "artemis_cli" ".stc" in
              Fun.protect
                ~finally:(fun () -> Sys.remove path)
                (fun () ->
                  Out_channel.with_open_bin path (fun oc -> output_string oc src);
                  List.iter
                    (fun cmd ->
                      let st, _, msg = Util.artemisc (cmd ^ " " ^ Filename.quote path) in
                      Alcotest.(check int) (cmd ^ " exit status") 1 st;
                      let prefix = "artemisc: " ^ path ^ expected in
                      Alcotest.(check bool)
                        (Printf.sprintf "%s: %S starts with %S" cmd msg prefix)
                        true
                        (String.starts_with ~prefix msg))
                    [ "check"; "lint"; "compile" ]))
            [
              ("parameter L=8;\niterator i;\ndouble u[L] @;\n", ":3: lexical error");
              ("parameter L=8;\niterator i;\ndouble u[L;\n", ":3: syntax error");
              ( "parameter L=8;\niterator i;\ndouble u[L]; stencil s (a) { a[i] = 1e * a[i]; }\n",
                ":3: lexical error" );
              ("parameter L=8;\niterator i;\ndouble u[4611686018427387904];\n", ":3: lexical error");
            ]);
      (* Each program is a small edit of one 1-D program; each once escaped
         a subcommand as an uncaught exception (exit 125). *)
      case "front-end failures exit 1 from every subcommand" (fun () ->
          let program ?(decl = "double u[L], v[L];") ?(body = "b[i] = 0.5 * a[i];")
              ?(params = "L=8") ?(iters = "i") () =
            Printf.sprintf
              "parameter %s;\niterator %s;\n%s\ncopyin u;\nstencil s (a, b) {\n  %s\n}\n\
               s (u, v);\ncopyout v;\n"
              params iters decl body
          in
          List.iter
            (fun (label, src) ->
              let path = Filename.temp_file "artemis_cli" ".stc" in
              Fun.protect
                ~finally:(fun () -> Sys.remove path)
                (fun () ->
                  Out_channel.with_open_bin path (fun oc -> output_string oc src);
                  List.iter
                    (fun cmd ->
                      let st, out, err = Util.artemisc (cmd ^ " " ^ Filename.quote path) in
                      let what = Printf.sprintf "%s %s" label cmd in
                      Alcotest.(check int) (what ^ ": exit status") 1 st;
                      Alcotest.(check bool) (what ^ ": names the file") true
                        (Util.contains ~sub:path err || Util.contains ~sub:path out))
                    [ "check"; "lint"; "analyze"; "explain"; "compile"; "optimize" ]))
            [ ("writes no array", program ~body:"double t = a[i];" ());
              ( "output rank above the iterator count",
                program ~decl:"double u[L,L], v[L,L];" ~body:"b[0][i] = a[0][i];" () );
              ("semantically invalid", program ~body:"b[i][i] = a[i][i];" ());
              ( "no launch",
                String.concat "\n"
                  (List.filter
                     (fun l -> l <> "s (u, v);")
                     (String.split_on_char '\n' (program ()))) );
              ("malformed float", program ~body:"b[i] = 1e * a[i];" ());
              ("integer past max_int", program ~params:"L=4611686018427387904" ());
              ("shift past max_int", program ~body:"b[i] = a[i+99999999999999999999];" ());
              ("zero extent from a parameter", program ~params:"L=0" ());
              ("1-D extent past 2^53", program ~params:"L=4611686018427387903" ());
              ( "3-D element count past 2^53",
                program ~params:"L=3000000" ~iters:"k, j, i" ~decl:"double u[L,L,L], v[L,L,L];"
                  ~body:"b[k][j][i] = 0.5 * a[k][j][i];" () ) ]);
      case "--prerank-keep accepts only finite percentages above 0" (fun () ->
          let run v =
            Util.artemisc ("explain --bench 7pt-smoother --json --prerank-keep=" ^ v)
          in
          (* A meaningless cut is a usage error naming the flag, not a
             search that measures almost nothing. *)
          List.iter
            (fun v ->
              let st, _, msg = run v in
              Alcotest.(check int) (v ^ ": exit status") 1 st;
              Alcotest.(check bool)
                (Printf.sprintf "%s: %S names the flag" v msg)
                true
                (Util.contains ~sub:"--prerank-keep" msg))
            [ "nan"; "0"; "-5"; "inf" ];
          (* 100 or more still means "off" *)
          let st, _, _ = run "100" in
          Alcotest.(check int) "100: exit 0" 0 st);
      case "every command-line error exits 1" (fun () ->
          List.iter
            (fun args ->
              let st, _, _ = Util.artemisc args in
              Alcotest.(check int) (args ^ ": exit status") 1 st)
            [ "bogus"; "explain --bogus"; "explain --bench 7pt-smoother --device foo";
              "explain --bench nope"; "explain" ]);
      case "deep tuning failures exit 1 naming the file" (fun () ->
          let with_program src f =
            let path = Filename.temp_file "artemis_cli" ".stc" in
            Fun.protect
              ~finally:(fun () -> Sys.remove path)
              (fun () ->
                Out_channel.with_open_bin path (fun oc -> output_string oc src);
                f path)
          in
          let fails ~sub cmd path =
            let st, _, err = Util.artemisc (cmd ^ " " ^ Filename.quote path) in
            Alcotest.(check int) (cmd ^ ": exit status") 1 st;
            Alcotest.(check bool) (Printf.sprintf "%s: %S names the file" cmd err) true
              (Util.contains ~sub:(path ^ ": " ^ sub) err)
          in
          let program ?(launch = "iterate 4 { s (v, u); swap (v, u); }") ?(iters = "j, i")
              ?(decl = "double u[L,N], v[L,N];")
              ?(body = "b[j][i] = 0.5 * (a[j][i-1] + a[j][i+1]);") params =
            Printf.sprintf
              "parameter %s;\niterator %s;\n%s\ncopyin u, v;\n\
               stencil s (b, a) {\n  %s\n}\n%s\ncopyout v;\n"
              params iters decl body launch
          in
          with_program (program ~launch:"s (v, u);" "L=8, N=16") (fun path ->
              List.iter
                (fun cmd -> fails ~sub:"program has no ping-pong time loop" cmd path)
                [ "deep"; "explain --deep" ]);
          (* Every fusion width's halo overflows shared memory, so no
             version launches. *)
          with_program
            (program ~iters:"k, j, i" ~decl:"double u[L,L,N], v[L,L,N];"
               ~body:"b[k][j][i] = a[k][j][i+60] + a[k][j][i-60] + a[k+30][j+30][i];"
               "L=64, N=180")
            (fun path ->
              fails ~sub:"no fusion width of the time loop has a launchable configuration"
                "deep" path);
          with_program (program "L=8, N=16") (fun path ->
              let st, _, _ = Util.artemisc ("deep " ^ Filename.quote path) in
              Alcotest.(check int) "a loop deep-tunes: exit status" 0 st;
              List.iter
                (fun args ->
                  let st, _, err = Util.artemisc ("deep " ^ Filename.quote path ^ " " ^ args) in
                  Alcotest.(check int) (args ^ ": exit status") 1 st;
                  Alcotest.(check bool) (Printf.sprintf "%s: %S is a usage error" args err) true
                    (Util.contains ~sub:"Usage: artemisc deep" err))
                [ "-T -1"; "--iterations=-1" ]));
    ] )
