(* Tests of the host benchmark: its statistics and bound rule, failure
   accounting, the BENCHMARK.json cross-check, and a smoke run of the
   executable. *)

open Artemis_perf

let close = Alcotest.float 1e-9

let test_median () =
  Alcotest.check close "odd" 3.0 (Stats.median [ 5.0; 1.0; 3.0 ]);
  Alcotest.check close "even" 2.5 (Stats.median [ 4.0; 1.0; 3.0; 2.0 ]);
  Alcotest.check close "single" 7.0 (Stats.median [ 7.0 ])

(* Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
   and statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]. *)
let test_quartiles () =
  let q1, q3 = Stats.quartiles (List.init 10 (fun i -> float_of_int (10 - i))) in
  Alcotest.check close "q1 of 1..10" 2.75 q1;
  Alcotest.check close "q3 of 1..10" 8.25 q3;
  let q1, q3 = Stats.quartiles [ 3.0; 1.0; 2.0 ] in
  Alcotest.check close "q1 of 1..3" 1.0 q1;
  Alcotest.check close "q3 of 1..3" 3.0 q3

let test_slowest_item () =
  let passes =
    [ [ ("a", 1.0); ("b", 5.0) ]; [ ("a", 9.0); ("b", 4.0) ]; [ ("a", 2.0); ("b", 6.0) ] ]
  in
  (* One slow outlier does not make [a] the slowest: medians 2 vs 5. *)
  match Stats.slowest_item passes with
  | Some (name, s) ->
    Alcotest.(check string) "item" "b" name;
    Alcotest.check close "median" 5.0 s
  | None -> Alcotest.fail "no item"

let test_bound_rule () =
  Alcotest.check close "relative wins" 0.5 (Stats.allowance ~rel:0.25 ~abs:0.02 2.0);
  Alcotest.check close "absolute wins" 0.02 (Stats.allowance ~rel:0.25 ~abs:0.02 0.01);
  let judge ?(old_iqr = 0.0) ?(new_iqr = 0.0) ?(abs = 0.0) direction old_median new_median =
    Stats.verdict_to_string
      (Stats.judge ~direction ~rel:0.1 ~abs ~old_median ~old_iqr ~new_median ~new_iqr)
  in
  let check = Alcotest.(check string) in
  check "within" "within bound" (judge Stats.Lower 1.0 1.09);
  check "worse" "worse" (judge Stats.Lower 1.0 1.11);
  check "better" "better" (judge Stats.Lower 1.0 0.85);
  check "higher is better" "worse" (judge Stats.Higher 1.0 0.85);
  check "absolute floor" "within bound" (judge ~abs:0.02 Stats.Lower 0.01 0.025);
  check "noisy old side" "unresolved" (judge ~old_iqr:0.2 Stats.Lower 1.0 1.5);
  check "noisy new side" "unresolved" (judge ~new_iqr:0.2 Stats.Lower 1.0 1.0)

let test_spearman () =
  Alcotest.check close "monotone" 1.0 (Stats.spearman [ 1.0; 2.0; 3.0 ] [ 10.0; 20.0; 90.0 ]);
  Alcotest.check close "reversed" (-1.0) (Stats.spearman [ 1.0; 2.0; 3.0 ] [ 3.0; 2.0; 1.0 ])

let grid values =
  let g = Artemis_exec.Grid.create [| Array.length values |] in
  Array.blit values 0 g.data 0 (Array.length values);
  g

(* A copyout with one flipped bit is exactly one failed check. *)
let test_one_flipped_bit () =
  let a = grid [| 1.0; 2.0; 3.0 |] and b = grid [| 4.0; 5.0 |] in
  let a' = Artemis_exec.Grid.copy a and b' = Artemis_exec.Grid.copy b in
  b'.data.(1) <- Int64.float_of_bits (Int64.logxor (Int64.bits_of_float b'.data.(1)) 1L);
  let p = Pass.create () in
  Pass.compare_copyouts p ~what:"blocks"
    ~expected:[ ("a", a); ("b", b) ]
    ~actual:[ ("a", a'); ("b", b') ];
  Alcotest.(check int) "checks" 2 p.checks;
  Alcotest.(check int) "failures" 1 (List.length p.failures)

let test_exception_is_one_failure () =
  let p = Pass.create () in
  ignore (Pass.run_item p "boom" (fun p -> Pass.check p true "ok"; failwith "x"));
  Alcotest.(check int) "checks" 2 p.checks;
  Alcotest.(check int) "failures" 1 (List.length p.failures)

(* Tests run in _build/default/perf/test; the benchmark runs from the
   root that holds BENCHMARK.json. *)
let root = Filename.concat (Sys.getcwd ()) "../.."

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let read name = In_channel.with_open_bin (Filename.concat root name) In_channel.input_all

let test_spec_matches_benchmark_json () =
  let spec = Spec.load (Filename.concat root "BENCHMARK.json") in
  Alcotest.(check int) "workloads" 4 (List.length spec.workloads);
  Alcotest.(check int) "layer metrics"
    (List.length (List.filter (fun (l : Spec.layer_metric) -> not l.run_only) Spec.layers))
    (List.length spec.per_layer);
  let doc = read "BENCHMARK.json" in
  let marker = "\"trace.overhead_frac\"" in
  let rec find i = if String.sub doc i (String.length marker) = marker then i else find (i + 1) in
  let i = find 0 in
  let renamed =
    String.sub doc 0 i ^ "\"trace.other\""
    ^ String.sub doc (i + String.length marker) (String.length doc - i - String.length marker)
  in
  match Spec.of_json (Artemis.Json.parse renamed) with
  | _ -> Alcotest.fail "a renamed layer metric must be refused"
  | exception Spec.Invalid _ -> ()

let test_readme_names_every_metric () =
  let readme = read "perf/README.md" in
  let spec = Spec.load (Filename.concat root "BENCHMARK.json") in
  List.iter
    (fun name ->
      if not (contains readme ("`" ^ name ^ "`")) then
        Alcotest.failf "perf/README.md does not mention `%s`" name)
    (List.map (fun (w : Spec.workload) -> w.wname) spec.workloads
    @ List.map (fun (m : Spec.metric) -> m.name) spec.end_to_end
    @ List.map (fun (l : Spec.layer_metric) -> l.lname) Spec.layers)

let test_smoke () =
  let here = Sys.getcwd () in
  Sys.chdir root;
  let status =
    Fun.protect
      ~finally:(fun () -> Sys.chdir here)
      (fun () ->
        let pid =
          Unix.create_process "perf/main.exe" [| "perf/main.exe"; "smoke" |] Unix.stdin
            Unix.stdout Unix.stderr
        in
        snd (Unix.waitpid [] pid))
  in
  if status <> Unix.WEXITED 0 then Alcotest.fail "perf/main.exe smoke failed"

let () =
  Alcotest.run "perf"
    [ ( "stats",
        [ Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles match statistics.quantiles" `Quick test_quartiles;
          Alcotest.test_case "slowest item" `Quick test_slowest_item;
          Alcotest.test_case "relative/absolute bound rule" `Quick test_bound_rule;
          Alcotest.test_case "spearman" `Quick test_spearman ] );
      ( "failures",
        [ Alcotest.test_case "one flipped bit is one failure" `Quick test_one_flipped_bit;
          Alcotest.test_case "an exception is one failure" `Quick test_exception_is_one_failure ] );
      ( "spec",
        [ Alcotest.test_case "BENCHMARK.json agrees with perf/" `Quick
            test_spec_matches_benchmark_json;
          Alcotest.test_case "README names every metric" `Quick test_readme_names_every_metric ] );
      ("smoke", [ Alcotest.test_case "main.exe smoke" `Slow test_smoke ]) ]
