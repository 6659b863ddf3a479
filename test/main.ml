(* Test entry point: aggregates every suite; `dune runtest` runs it. *)

let () =
  Alcotest.run "artemis"
    [
      Test_lexer.tests;
      Test_parser.tests;
      Test_check.tests;
      Test_analysis.tests;
      Test_depgraph.tests;
      Test_gpu.tests;
      Test_predict.tests;
      Test_ir.tests;
      Test_exec.tests;
      Test_split.tests;
      Test_traffic.tests;
      Test_codegen.tests;
      Test_profile.tests;
      Test_tune.tests;
      Test_obs.tests;
      Test_journal.tests;
      Test_fuse.tests;
      Test_lint.tests;
      Test_static.tests;
      Test_verify.tests;
      Test_par.tests;
      Test_temporal.tests;
      Test_suite_bench.tests;
      Test_driver.tests;
      Test_extensions.tests;
      Test_props.tests;
      Test_pricing.tests;
      Test_decision.tests;
    ]
