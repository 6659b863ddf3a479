(* Decision-journal tests: append/capture/replay semantics, JSONL
   round-trip, jobs-independence of the explain provenance pipeline
   (tuner, deep tuner, fuzzer, executors), candidate accounting in the
   provenance report, and the bench-diff regression gate. *)

module Journal = Artemis_obs.Journal
module Provenance = Artemis_obs.Provenance
module Bench_diff = Artemis_obs.Bench_diff
module Json = Artemis_obs.Json
module Suite = Artemis_bench.Suite
module Reference = Artemis_exec.Reference
module I = Artemis_dsl.Instantiate

let case name f = Alcotest.test_case name `Quick f

(* The full explain pipeline on a small suite stencil: optimize every
   kernel, deep-tune if iterative, return the journal as JSONL. *)
let run_pipeline () =
  Journal.start ();
  let b = Suite.at_size 32 (Suite.find "7pt-smoother") in
  List.iter
    (fun k -> ignore (Artemis.optimize_kernel ~iterative:b.Suite.iterative k))
    (Suite.kernels b);
  if b.Suite.iterative then ignore (Artemis.deep_tune ~max_tile:2 b.Suite.prog);
  let out = Journal.to_jsonl () in
  Journal.stop ();
  out

let field name = function
  | Json.Obj fs -> (
    match List.assoc_opt name fs with
    | Some v -> v
    | None -> Alcotest.failf "missing field %s" name)
  | _ -> Alcotest.failf "expected an object around %s" name

let int_of = function
  | Json.Int i -> i
  | j -> Alcotest.failf "expected an int, got %s" (Json.to_string j)

let str_of = function
  | Json.Str s -> s
  | j -> Alcotest.failf "expected a string, got %s" (Json.to_string j)

let events_of_kind kind jsonl =
  List.filter
    (fun ev -> str_of (field "event" ev) = kind)
    (Util.parse_jsonl jsonl)

(* ------------------------------------------------------------------ *)
(* Bench-diff fixtures                                                 *)
(* ------------------------------------------------------------------ *)

(* A miniature BENCH document: one tflops indicator, one wall-seconds
   non-indicator, one boolean flag, one speedup ratio, plus a meta block
   that must never be gated on. *)
let bench_doc ?(tflops = 2.0) ?(time_s = 1.0) ?(equal = true) ?(speedup = 8.0)
    ?(drop_tflops = false) () =
  Json.Obj
    [ ("meta", Json.Obj [ ("schema_version", Json.Int 2); ("jobs", Json.Int 1) ]);
      ( "results",
        Json.List
          [ Json.Obj
              (( [ ("name", Json.Str "k") ]
               @ (if drop_tflops then [] else [ ("tflops", Json.Float tflops) ])
               @ [ ("time_s", Json.Float time_s) ] )) ] );
      ("outputs_equal", Json.Bool equal);
      ("speedup_split_vs_compiled", Json.Float speedup) ]

let diff ?threshold_pct old_doc new_doc =
  Bench_diff.diff ?threshold_pct ~old_doc ~new_doc ()

let tests =
  ( "journal",
    [
      case "capture diverts appends; replay restores order through JSONL"
        (fun () ->
          Journal.start ();
          Journal.append "a" [ ("x", Json.Int 1) ];
          let (), entries =
            Journal.capture (fun () ->
                Journal.append "b" [ ("y", Json.Str "two") ];
                Journal.append "c" [])
          in
          Alcotest.(check int) "capture hides events" 1 (Journal.event_count ());
          Journal.replay entries;
          Journal.append "d" [ ("ok", Json.Bool true) ];
          Alcotest.(check int) "all replayed" 4 (Journal.event_count ());
          let path = Filename.temp_file "artemis_journal" ".jsonl" in
          Journal.write path;
          let back = Util.parse_jsonl (In_channel.with_open_bin path In_channel.input_all) in
          Sys.remove path;
          Journal.stop ();
          Alcotest.(check (list string))
            "event order survives the file round-trip"
            [ "a"; "b"; "c"; "d" ]
            (List.map (fun ev -> str_of (field "event" ev)) back);
          Alcotest.(check (list int))
            "seq is dense from 0" [ 0; 1; 2; 3 ]
            (List.map (fun ev -> int_of (field "seq" ev)) back);
          let direct = List.map (Json.to_string ~indent:false) (Journal.events ()) in
          let reread = List.map (Json.to_string ~indent:false) back in
          Alcotest.(check (list string)) "file matches live events" direct reread)
      ;
      case "disabled journal drops appends and captures nothing" (fun () ->
          Journal.start ();
          Journal.stop ();
          Alcotest.(check int) "stop after start leaves the cleared log" 0
            (Journal.event_count ());
          Journal.append "ghost" [];
          Alcotest.(check int) "append is a no-op when disabled" 0
            (Journal.event_count ());
          let v, entries = Journal.capture (fun () -> Journal.append "g2" []; 42) in
          Alcotest.(check int) "capture still runs f" 42 v;
          Alcotest.(check int) "capture buffers nothing" 0 (List.length entries))
      ;
      case "explain pipeline journals byte-identically at jobs=1 and jobs=4"
        (fun () ->
          let serial = Util.with_pool ~jobs:1 run_pipeline in
          let parallel = Util.with_pool ~jobs:4 run_pipeline in
          Alcotest.(check bool) "journal is non-empty" true
            (String.length serial > 0);
          Alcotest.(check string) "byte-identical JSONL" serial parallel)
      ;
      case "temporal tuning journals byte-identically at jobs=1 and jobs=4"
        (fun () ->
          (* tuner.temporal events are folded on the main domain in
             canonical candidate order, like tuner.candidate — the
             worker count must not leak into the byte stream. *)
          let run () =
            Journal.start ();
            let b = Suite.at_size 32 (Suite.find "7pt-smoother") in
            ignore (Artemis.deep_tune ~max_tile:2 ~max_degree:2 b.Suite.prog);
            let out = Journal.to_jsonl () in
            Journal.stop ();
            out
          in
          let serial = Util.with_pool ~jobs:1 run in
          let parallel = Util.with_pool ~jobs:4 run in
          Alcotest.(check bool) "tuner.temporal events present" true
            (events_of_kind "tuner.temporal" serial <> []);
          Alcotest.(check string) "byte-identical JSONL" serial parallel)
      ;
      case "provenance report accounts for every candidate" (fun () ->
          let jsonl = Util.with_pool ~jobs:1 run_pipeline in
          let events = Util.parse_jsonl jsonl in
          let report = Provenance.report ~program:"7pt-smoother" events in
          let s = field "summary" report in
          let candidates = int_of (field "candidates" s) in
          let measured = int_of (field "measured" s) in
          let pruned = int_of (field "lint_pruned" s) in
          let prerank_pruned = int_of (field "prerank_pruned" s) in
          Alcotest.(check bool) "tuner saw candidates" true (candidates > 0);
          Alcotest.(check bool) "prerank pruned candidates" true
            (prerank_pruned > 0);
          Alcotest.(check int)
            "measured + pruned + prerank-pruned = candidates"
            candidates
            (measured + pruned + prerank_pruned);
          Alcotest.(check int) "every measurement has a cache outcome" measured
            (int_of (field "cache_hits" s) + int_of (field "cache_misses" s));
          (* The report must also render without raising. *)
          Alcotest.(check bool) "render is non-empty" true
            (String.length (Provenance.render report) > 0))
      ;
      case "pre-rank events account for every analytic measurement" (fun () ->
          (* Phase 1, the [tune.top] re-rank and phase 2 each journal a
             [tuner.prerank] event; with no cache directory every
             measurement is an [Analytic.measure], so their [measured]
             fields must add up to the counter's delta. *)
          let m = Artemis.Metrics.counter "exec.analytic_measures" in
          List.iter
            (fun name ->
              let k = List.hd (Suite.kernels (Suite.find name)) in
              let base = Artemis.Lower.lower Artemis.Device.p100 k Artemis.Options.default in
              let before = Artemis.Metrics.counter_value m in
              Journal.start ();
              ignore (Util.with_pool ~jobs:2 (fun () -> Artemis.Hierarchical.tune base));
              let preranks = events_of_kind "tuner.prerank" (Journal.to_jsonl ()) in
              Journal.stop ();
              Alcotest.(check (list string)) (name ^ ": one event per phase")
                [ "phase1"; "top"; "phase2" ]
                (List.map (fun ev -> str_of (field "phase" ev)) preranks);
              Alcotest.(check int) (name ^ ": measured sums to the measurements")
                (int_of_float (Artemis.Metrics.counter_value m -. before))
                (List.fold_left (fun acc ev -> acc + int_of (field "measured" ev)) 0 preranks))
            [ "7pt-smoother"; "rhs4sgcurv" ])
      ;
      case "fuzz cases journal deterministically under the pool" (fun () ->
          let run () =
            Journal.start ();
            ignore (Artemis_verify.Harness.run ~seed:7 ~cases:3 ());
            let s = Journal.to_jsonl () in
            Journal.stop ();
            s
          in
          let serial = Util.with_pool ~jobs:1 run in
          let parallel = Util.with_pool ~jobs:4 run in
          Alcotest.(check string) "byte-identical JSONL" serial parallel;
          Alcotest.(check int) "one fuzz.case event per case" 3
            (List.length (events_of_kind "fuzz.case" serial)))
      ;
      case "executors journal interior/halo splits" (fun () ->
          let b = Suite.at_size 16 (Suite.find "7pt-smoother") in
          Journal.start ();
          let store = Reference.store_of_program b.Suite.prog in
          let scalars = Reference.scalars_of_program b.Suite.prog in
          Reference.run_schedule store ~scalars (I.schedule b.Suite.prog);
          let jsonl = Journal.to_jsonl () in
          Journal.stop ();
          let splits = events_of_kind "exec.split" jsonl in
          Alcotest.(check bool) "at least one exec.split" true (splits <> []);
          List.iter
            (fun ev ->
              Alcotest.(check string) "reference executor" "reference"
                (str_of (field "executor" ev));
              let pts = function Json.Float f -> f | Json.Int i -> float_of_int i
                | j -> Alcotest.failf "points: %s" (Json.to_string j)
              in
              Alcotest.(check bool) "points were tallied" true
                (pts (field "interior_points" ev) +. pts (field "eliminated_points" ev)
                 > 0.0);
              Alcotest.(check bool) "no halo field" true
                (Json.member "halo_points" ev = None))
            splits)
      ;
      case "bench-diff: identical documents pass" (fun () ->
          let d = bench_doc () in
          let r = diff d d in
          Alcotest.(check bool) "passed" true (Bench_diff.passed r);
          Alcotest.(check int) "gates tflops, bool, speedup" 3
            (List.length r.Bench_diff.checks))
      ;
      case "bench-diff: a 15% tflops drop fails at 10, passes at 20" (fun () ->
          let old_doc = bench_doc ~tflops:2.0 () in
          let new_doc = bench_doc ~tflops:1.7 () in
          Alcotest.(check bool) "fails at default threshold" false
            (Bench_diff.passed (diff old_doc new_doc));
          Alcotest.(check bool) "passes at 20%" true
            (Bench_diff.passed (diff ~threshold_pct:20.0 old_doc new_doc)))
      ;
      case "bench-diff: boolean flips gate asymmetrically" (fun () ->
          let t = bench_doc ~equal:true () and f = bench_doc ~equal:false () in
          Alcotest.(check bool) "true -> false is a regression" false
            (Bench_diff.passed (diff t f));
          Alcotest.(check bool) "false -> true is an improvement" true
            (Bench_diff.passed (diff f t)))
      ;
      case "bench-diff: a vanished indicator fails the gate" (fun () ->
          let old_doc = bench_doc () in
          let new_doc = bench_doc ~drop_tflops:true () in
          let r = diff old_doc new_doc in
          Alcotest.(check bool) "missing fails" false (Bench_diff.passed r);
          Alcotest.(check bool) "reported as Missing" true
            (List.exists
               (fun c -> c.Bench_diff.status = Bench_diff.Missing)
               r.Bench_diff.checks))
      ;
      case "bench-diff: analytic measurements gate lower-is-better" (fun () ->
          let doc n =
            Json.Obj
              [ ( "configs",
                  Json.List [ Json.Obj [ ("analytic_measures", Json.Float n) ] ] ) ]
          in
          Alcotest.(check bool) "fewer measurements pass" true
            (Bench_diff.passed (diff (doc 433.0) (doc 0.0)));
          Alcotest.(check bool) "15% more measurements fail" false
            (Bench_diff.passed (diff (doc 100.0) (doc 115.0)));
          Alcotest.(check bool) "5% more measurements pass" true
            (Bench_diff.passed (diff (doc 100.0) (doc 105.0)));
          Alcotest.(check bool) "any rise from 0 fails" false
            (Bench_diff.passed (diff (doc 0.0) (doc 1.0))))
      ;
      case "bench-diff: wall seconds are not gated" (fun () ->
          let old_doc = bench_doc ~time_s:1.0 () in
          let new_doc = bench_doc ~time_s:10.0 () in
          Alcotest.(check bool) "10x slower wall time still passes" true
            (Bench_diff.passed (diff old_doc new_doc)))
      ;
      case "bench meta carries schema version, revision, and jobs" (fun () ->
          let m = Bench_diff.meta ~jobs:3 ~machine_model:(Json.Obj []) in
          Alcotest.(check int) "schema_version" 2
            (int_of (field "schema_version" m));
          Alcotest.(check int) "jobs" 3 (int_of (field "jobs" m));
          Alcotest.(check bool) "git_rev present" true
            (String.length (str_of (field "git_rev" m)) > 0))
      ;
    ] )
