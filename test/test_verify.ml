(* Differential-harness tests: the pinned seed corpus must replay with
   zero findings, generation and the harness must be deterministic, the
   shrinker must reach a fixpoint, repro dumps must be replayable, and
   each bug the fuzzer caught (or that shipped with it) stays pinned. *)

open Artemis_verify
module A = Artemis_dsl.Ast
module I = Artemis_dsl.Instantiate
module Fusion = Artemis_fuse.Fusion

let case name f = Alcotest.test_case name `Quick f

(* The pinned corpus.  Seeds 7 and 42 are load-bearing: 7 used to crash
   the whole run on an input-blind ping-pong (see the regression pin
   below), and 42 is the acceptance seed replayed by `make fuzz-smoke`. *)
let corpus = [ (1, 8); (7, 50); (13, 8); (42, 15); (99, 8) ]

let total_stmts (p : A.program) =
  List.fold_left (fun acc (d : A.stencil_def) -> acc + List.length d.body) 0 p.stencils

(* Deterministically locate a generated iterative case whose step kernel
   never reads the exchanged input buffer — the shape that crashed
   Fusion.time_fuse before pingpong_of_item learned to reject it. *)
let find_input_blind ~seed =
  let rec go i =
    if i >= 400 then Alcotest.fail "no input-blind iterative case generated"
    else
      let c = Gen.generate ~seed ~index:i in
      if not c.Gen.iterative then go (i + 1)
      else
        match I.schedule c.Gen.prog with
        | [ I.Repeat (_, [ I.Launch k; I.Exchange (_, inp) ]) ]
          when not (List.mem inp (I.read_arrays_of_body k.body)) ->
          (c, k, inp)
        | _ -> go (i + 1)
  in
  go 0

let tests =
  ( "verify",
    [
      case "pinned seed corpus replays with zero findings" (fun () ->
          List.iter
            (fun (seed, cases) ->
              let s = Harness.run ~seed ~cases () in
              Alcotest.(check int)
                (Printf.sprintf "seed %d findings" seed)
                0
                (List.length s.Harness.findings);
              Alcotest.(check bool)
                (Printf.sprintf "seed %d ran trials" seed)
                true (s.Harness.trials_run > 0);
              Alcotest.(check bool)
                (Printf.sprintf "seed %d checked plans" seed)
                true
                (s.Harness.plans_checked > s.Harness.trials_run / 2))
            corpus);
      case "generation is deterministic in (seed, index)" (fun () ->
          List.iter
            (fun index ->
              let p1 = (Gen.generate ~seed:42 ~index).Gen.prog in
              let p2 = (Gen.generate ~seed:42 ~index).Gen.prog in
              Alcotest.(check string)
                (Printf.sprintf "case %d" index)
                (Artemis_dsl.Pretty.program_to_string p1)
                (Artemis_dsl.Pretty.program_to_string p2))
            [ 0; 1; 2; 17; 63 ]);
      case "generated programs pretty-print to re-parseable DSL" (fun () ->
          List.iter
            (fun index ->
              let p = (Gen.generate ~seed:9 ~index).Gen.prog in
              ignore (Artemis.parse_string (Artemis_dsl.Pretty.program_to_string p)))
            [ 0; 1; 2; 3; 4; 5; 6; 7 ]);
      case "harness summary is reproducible" (fun () ->
          let s1 = Harness.run ~seed:5 ~cases:4 () in
          let s2 = Harness.run ~seed:5 ~cases:4 () in
          Alcotest.(check string) "same summary"
            (Harness.summary_to_string s1)
            (Harness.summary_to_string s2));
      case "baseline trial on a generated case checks clean" (fun () ->
          let c = Gen.generate ~seed:42 ~index:0 in
          let trial = { Sampler.variant = Sampler.Plain; cfg = Sampler.default_cfg } in
          match Oracle.check c.Gen.prog trial with
          | Oracle.Checked { plans; mismatches = [] } ->
            Alcotest.(check bool) "at least one plan" true (plans >= 1)
          | Oracle.Checked { mismatches; _ } ->
            Alcotest.failf "unexpected mismatch: %s"
              (Oracle.mismatch_to_string (List.hd mismatches))
          | Oracle.Skipped r -> Alcotest.failf "baseline skipped: %s" r);
      case "shrinker reaches a fixpoint of viable reductions" (fun () ->
          (* An always-failing predicate makes the shrinker accept every
             viable reduction: the result must still check, be no larger
             than the input, and leave nothing individually droppable. *)
          let c = Gen.generate ~seed:3 ~index:1 in
          let trial = { Sampler.variant = Sampler.Plain; cfg = Sampler.default_cfg } in
          let r = Shrink.minimize ~fails:(fun _ _ -> true) c.Gen.prog trial in
          Util.assert_checked r.Shrink.prog;
          Alcotest.(check bool) "instantiates" true
            (Artemis_dsl.Instantiate.schedule r.Shrink.prog <> []);
          Alcotest.(check bool) "made progress" true (r.Shrink.steps > 0);
          Alcotest.(check bool) "no more statements than the input" true
            (total_stmts r.Shrink.prog <= total_stmts c.Gen.prog);
          List.iter
            (fun ((_, v) : string * int) ->
              Alcotest.(check bool) "extents stay executable" true (v >= 5))
            r.Shrink.prog.A.params);
      case "shrinker preserves the failure predicate" (fun () ->
          (* Predicate: the program still declares >= 2 arrays.  The
             shrunk repro must still satisfy it (shrinking only accepts
             reductions that keep failing). *)
          let c = Gen.generate ~seed:8 ~index:2 in
          let trial = { Sampler.variant = Sampler.Plain; cfg = Sampler.default_cfg } in
          let fails (p : A.program) _ =
            List.length
              (List.filter (function A.Array_decl _ -> true | _ -> false) p.A.decls)
            >= 2
          in
          let r = Shrink.minimize ~fails c.Gen.prog trial in
          Alcotest.(check bool) "still fails" true (fails r.Shrink.prog r.Shrink.trial));
      case "repro dumps are replayable DSL" (fun () ->
          let c = Gen.generate ~seed:1 ~index:0 in
          let finding =
            {
              Harness.case_index = 0;
              trial = { Sampler.variant = Sampler.Plain; cfg = Sampler.default_cfg };
              mismatches =
                [ Oracle.Output_mismatch { array = "out0"; diff = 1.0; margin = 0 } ];
              prog = c.Gen.prog;
              shrink_steps = 0;
            }
          in
          match Harness.render_finding ~seed:1 finding with
          | [ (stc_name, stc); (txt_name, txt) ] ->
            Alcotest.(check bool) "stc extension" true
              (Filename.check_suffix stc_name ".stc");
            Alcotest.(check bool) "repro extension" true
              (Filename.check_suffix txt_name ".repro.txt");
            ignore (Artemis.parse_string stc);
            Alcotest.(check bool) "replay command present" true
              (Util.contains ~sub:"artemisc fuzz --seed 1" txt)
          | files -> Alcotest.failf "expected 2 dump files, got %d" (List.length files));
      (* -------------------------------------------------------------- *)
      (* Regression pins for bugs this harness caught or shipped with.   *)
      (* -------------------------------------------------------------- *)
      case "pin: input-blind ping-pong is rejected, not fused" (fun () ->
          (* Fuzzer-found (seed 7): an iterative step reading only its
             coefficient array was accepted as a ping-pong, and time_fuse
             then raised Fusion_error("unknown input").  It must now be
             rejected up front, and the fused trial must skip cleanly. *)
          let c, k, inp = find_input_blind ~seed:7 in
          let item = List.hd (I.schedule c.Gen.prog) in
          (match Fusion.pingpong_of_item item with
          | None -> ()
          | Some _ -> Alcotest.fail "input-blind loop accepted as ping-pong");
          (* The crash the old acceptance led to: *)
          Alcotest.(check bool) "time_fuse would have raised" true
            (try
               ignore (Fusion.time_fuse k ~out:"__none__" ~inp ~f:2);
               false
             with Fusion.Fusion_error _ -> true);
          let trial =
            { Sampler.variant = Sampler.Fused [ 2 ]; cfg = Sampler.default_cfg }
          in
          match Oracle.check c.Gen.prog trial with
          | Oracle.Skipped _ -> ()
          | Oracle.Checked { mismatches = Oracle.Crash _ :: _; _ } ->
            Alcotest.fail "fused trial still crashes on input-blind loop"
          | Oracle.Checked _ -> Alcotest.fail "fused a non-ping-pong loop");
      case "pin: crashes are findings, not fuzz-run aborts" (fun () ->
          (* Seed 7 killed the whole run before the oracle wrapped every
             pipeline stage; it must now complete and stay clean. *)
          let s = Harness.run ~seed:7 ~cases:50 () in
          Alcotest.(check int) "no findings" 0 (List.length s.Harness.findings));
    ] )
