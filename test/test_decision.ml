(* Pinned tuner decisions: MD5 of [artemisc explain --json] (the
   provenance report built from the decision journal) on four suite
   benchmarks, serially and at two jobs.  7pt-smoother is iterative, so
   its run covers deep tuning too; the [--prerank-keep 100] run shows
   the pre-rank cut reaches [deep_tune] as well as [optimize_kernel];
   rhs4sgcurv runs on a non-P100 device record; 27pt-smoother explores
   temporal blocking.  Any change to a candidate set, a measurement, a
   journal event or the report moves a digest; regenerate them only
   when a decision changes on purpose.  The [--prerank-keep 100] run
   never consults the pre-rank model, so a model change that moves the
   other three must leave it alone.  `make decision-pin` runs this
   group alone. *)

let pins =
  [
    ("--bench 7pt-smoother", "d29211ee53cde669e4afcc962e563f26");
    ("--bench 7pt-smoother --prerank-keep 100", "d07608686531db4ffcec77e8dabb0eb5");
    ("--bench rhs4sgcurv --device v100", "2f5ad9d30eff23692a5eee242fc59708");
    ("--bench 27pt-smoother --max-degree 4", "ed66f2586832f91a54b01f5af1aa1adb");
  ]

let tests =
  ( "decision",
    List.map
      (fun jobs ->
        Alcotest.test_case (Printf.sprintf "explain digests at -j %d" jobs) `Quick (fun () ->
            List.iter
              (fun (args, expected) ->
                let args = Printf.sprintf "explain %s --json -j %d" args jobs in
                Alcotest.(check string) (args ^ ": digest") expected (Util.artemisc_digest args))
              pins))
      [ 1; 2 ] )
