(* Parallel infrastructure tests: the domain work pool (ordering,
   exceptions, nesting, core-count clamp), jobs=1 vs jobs=4 determinism
   of the tuning and fuzzing pipelines, measurement-cache correctness,
   and compiled-evaluator equivalence with the interpreter. *)

module Pool = Artemis_par.Pool
module Cache = Artemis_tune.Measure_cache
module H = Artemis_tune.Hierarchical
module Metrics = Artemis_obs.Metrics
module Plan = Artemis_ir.Plan
module E = Artemis_exec
module O = Artemis_codegen.Options
module Suite = Artemis_bench.Suite

let case name f = Alcotest.test_case name `Quick f
let dev = Artemis_gpu.Device.p100

let smoother_kernel () = List.hd (Suite.kernels (Suite.find "7pt-smoother"))

(* Artifact strings for the determinism checks: every observable output
   of each pipeline, rendered once so jobs=1 and jobs=4 runs compare as
   plain string equality. *)
let optimize_artifact () =
  Cache.clear ();
  let r = Artemis.optimize_kernel (smoother_kernel ()) in
  Printf.sprintf "%s explored=%d" (Plan.label r.tuned.plan) r.explored

let deep_artifact () =
  Cache.clear ();
  let b = Suite.find "7pt-smoother" in
  let dr = Artemis.deep_tune ~max_tile:2 b.prog in
  String.concat ";"
    (List.map
       (fun (v : Artemis.Deep.version) ->
         Printf.sprintf "%d:%s" v.time_tile (Plan.label v.record.best.plan))
       dr.deep.versions)
  ^ Printf.sprintf "|cusp=%d|sched=[%s]" dr.deep.cusp
      (String.concat ";" (List.map string_of_int dr.schedule))

let fuzz_artifact ?schedule () =
  Artemis_verify.Harness.summary_to_string
    (Artemis_verify.Harness.run ~lint:true ?schedule ~seed:5 ~cases:6 ())

let check_deterministic name artifact =
  let serial = Util.with_pool ~jobs:1 artifact in
  let parallel = Util.with_pool ~jobs:4 artifact in
  Alcotest.(check string) name serial parallel

let pool_tests =
  [
    case "serial map equals List.map in order" (fun () ->
        Util.with_pool ~jobs:1 (fun () ->
            let xs = List.init 20 Fun.id in
            Alcotest.(check (list int))
              "identical" (List.map (fun x -> (x * x) + 1) xs)
              (Pool.map (fun x -> (x * x) + 1) xs)));
    case "forced-parallel map preserves input order" (fun () ->
        Util.with_pool ~jobs:4 (fun () ->
            let xs = List.init 101 Fun.id in
            Alcotest.(check (list int))
              "identical" (List.map (fun x -> (x * 3) - 7) xs)
              (Pool.map ~label:"test" (fun x -> (x * 3) - 7) xs)));
    case "lowest-index exception is the one re-raised" (fun () ->
        Util.with_pool ~jobs:4 (fun () ->
            match
              Pool.map
                (fun i ->
                  if i = 3 || i = 11 then failwith (string_of_int i) else i)
                (List.init 16 Fun.id)
            with
            | _ -> Alcotest.fail "expected an exception"
            | exception Failure msg -> Alcotest.(check string) "index" "3" msg));
    case "nested map degrades to serial without deadlock" (fun () ->
        Util.with_pool ~jobs:4 (fun () ->
            let rows =
              Pool.map
                (fun i -> Pool.map (fun j -> (i * 10) + j) (List.init 5 Fun.id))
                (List.init 4 Fun.id)
            in
            Alcotest.(check (list (list int)))
              "identical"
              (List.init 4 (fun i -> List.init 5 (fun j -> (i * 10) + j)))
              rows));
    case "parallelism is clamped to the core count" (fun () ->
        Util.with_pool ~jobs:4 ~force:false (fun () ->
            Alcotest.(check int) "jobs records the request" 4 (Pool.jobs ());
            Alcotest.(check bool) "clamped by cores" true
              (Pool.parallelism () <= Domain.recommended_domain_count ());
            Alcotest.(check bool) "clamped by jobs" true
              (Pool.parallelism () <= Pool.jobs ());
            Pool.force_parallel := true;
            Alcotest.(check int) "forced lifts the clamp" 4 (Pool.parallelism ())));
  ]

(* Every per-kernel fact the tuner leans on, rendered exactly (%h for
   floats).  Each call sees a fresh copy of the kernel, so the
   physical-identity caches miss and the facts are rebuilt on whichever
   domain runs the task. *)
let kernel_analysis (k : Artemis_dsl.Instantiate.kernel) =
  let k = { k with kname = k.kname } in
  let f = Artemis_ir.Kernel_facts.of_kernel k in
  let p = Artemis_codegen.Lower.lower dev k O.default in
  let res = Artemis_ir.Estimate.resources p in
  let counters =
    match E.Analytic.try_measure p with
    | None -> "invalid"
    | Some m ->
      Printf.sprintf "%h %h %h %h" m.counters.total_flops m.counters.dram_bytes
        m.counters.gld_transactions m.time_s
  in
  Printf.sprintf "%s|%s|%d %d|%s" k.kname
    (Digest.to_hex (Digest.string (Marshal.to_string f [ Marshal.No_sharing ])))
    res.regs_per_thread res.shared_per_block counters

let determinism_tests =
  [
    case "kernel analyses on pool workers match a serial run" (fun () ->
        let kernels = List.concat_map Suite.kernels Suite.all in
        let work = List.concat (List.init 4 (fun _ -> kernels)) in
        let serial = List.map kernel_analysis work in
        let parallel =
          Util.with_pool ~jobs:4 (fun () -> Pool.map kernel_analysis work)
        in
        Alcotest.(check (list string)) "identical" serial parallel);
    case "optimize: jobs=4 plan identical to jobs=1" (fun () ->
        check_deterministic "optimize artifact" optimize_artifact);
    case "deep: jobs=4 versions and schedule identical to jobs=1" (fun () ->
        check_deterministic "deep artifact" deep_artifact);
    case "fuzz: jobs=4 summary identical to jobs=1" (fun () ->
        check_deterministic "fuzz artifact" fuzz_artifact);
  ]

let coeff_src c =
  Printf.sprintf
    {|parameter L=16; iterator i, j; double u[L,L], v[L,L]; copyin v;
      stencil s0 (x, y) { x[i][j] = %s * (y[i-1][j] + y[i+1][j]); }
      s0 (u, v); copyout u;|}
    c

let lower_src src =
  Artemis_codegen.Lower.lower dev (Artemis.first_kernel (Artemis.parse_string src)) O.default

(* Run [f] on a fresh cache directory and an empty in-memory table, then
   remove the directory. *)
let with_cache_dir f =
  let d = Filename.temp_dir "artemis-cache-test" "" in
  let files () = Array.to_list (Sys.readdir d) |> List.map (Filename.concat d) in
  Cache.clear ();
  Fun.protect
    ~finally:(fun () ->
      List.iter Sys.remove (files ());
      Sys.rmdir d;
      Cache.clear ())
    (fun () -> Cache.with_dir d (fun () -> f files))

let write_file path s = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* Ways a cache file can go bad; each must read as a miss. *)
let corruptions =
  [
    ( "truncated",
      fun path ->
        let s = In_channel.with_open_bin path In_channel.input_all in
        write_file path (String.sub s 0 (String.length s / 2)) );
    ("garbage", fun path -> write_file path "this is not a marshalled cache entry\n");
    ( "key mismatch",
      fun path ->
        Out_channel.with_open_bin path (fun oc ->
            Marshal.to_channel oc ("another key", (None : E.Analytic.measurement option)) [])
    );
  ]

let cache_tests =
  [
    case "structurally equal plans share a key" (fun () ->
        let p = Artemis_codegen.Lower.lower dev (smoother_kernel ()) O.default in
        let q = { p with Plan.block = Array.copy p.block } in
        Alcotest.(check bool) "physically distinct" true (p != q);
        Alcotest.(check bool) "same key" true (Cache.key_of p = Cache.key_of q));
    case "distinct plans get distinct keys" (fun () ->
        let p = Artemis_codegen.Lower.lower dev (smoother_kernel ()) O.default in
        let block = Array.copy p.block in
        block.(Array.length block - 1) <- 2 * block.(Array.length block - 1);
        let q = { p with Plan.block } in
        Alcotest.(check bool) "keys differ" true
          (Cache.key_of p <> Cache.key_of q));
    case "plans differing only in the device's L2 constants get distinct keys"
      (fun () ->
        let p = Artemis_codegen.Lower.lower dev (smoother_kernel ()) O.default in
        let q = { p with Plan.device = { p.device with halo_miss = 0.3 } } in
        let r = { p with Plan.device = { p.device with l2_hit_floor = 0.1 } } in
        Alcotest.(check bool) "halo_miss in the key" true (Cache.key_of p <> Cache.key_of q);
        Alcotest.(check bool) "l2_hit_floor in the key" true
          (Cache.key_of p <> Cache.key_of r));
    case "structurally equal kernels share a key" (fun () ->
        let p = lower_src (coeff_src "0.5") and q = lower_src (coeff_src "0.5") in
        Alcotest.(check bool) "physically distinct kernels" true (p.kernel != q.kernel);
        Alcotest.(check bool) "same key" true (Cache.key_of p = Cache.key_of q));
    case "kernels differing in one coefficient get distinct keys" (fun () ->
        Alcotest.(check bool) "keys differ" true
          (Cache.key_of (lower_src (coeff_src "0.5")) <> Cache.key_of (lower_src (coeff_src "0.25"))));
    case "key length does not grow with the kernel" (fun () ->
        let plan name =
          Artemis_codegen.Lower.lower dev (List.hd (Suite.kernels (Suite.find name))) O.default
        in
        let small = plan "7pt-smoother" and big = plan "rhs4sgcurv" in
        let bytes (p : Plan.t) = String.length (Marshal.to_string p.kernel [ Marshal.No_sharing ]) in
        let ks = String.length (Cache.key_of small) and kb = String.length (Cache.key_of big) in
        Printf.printf "key bytes: 7pt-smoother %d, rhs4sgcurv %d (kernels %d, %d)\n" ks kb
          (bytes small) (bytes big);
        (* The placement map still names each array, so the keys differ
           a little; the kernels differ a hundredfold. *)
        Alcotest.(check bool) "kernels differ a hundredfold" true (bytes big > 100 * bytes small);
        Alcotest.(check bool) "keys within a factor of two" true (kb < 2 * ks));
    case "corrupt cache files read as misses and are rewritten" (fun () ->
        let p = Util.valid (lower_src (coeff_src "0.5")) in
        List.iter
          (fun (what, corrupt) ->
            with_cache_dir (fun files ->
                let r, o = Cache.try_measure_outcome p in
                Alcotest.(check bool) (what ^ ": cold miss") true (o = `Miss);
                let path =
                  match List.filter (fun f -> Filename.check_suffix f ".cache") (files ()) with
                  | [ f ] -> f
                  | fs -> Alcotest.failf "%s: expected one cache file, found %d" what (List.length fs)
                in
                corrupt path;
                Cache.clear ();
                let r', o' = Cache.try_measure_outcome p in
                Alcotest.(check bool) (what ^ ": reads as a miss") true (o' = `Miss);
                Alcotest.(check bool) (what ^ ": same result") true (r = r');
                Cache.clear ();
                let r'', o'' = Cache.try_measure_outcome p in
                Alcotest.(check bool) (what ^ ": rewritten entry hits") true (o'' = `Hit);
                Alcotest.(check bool) (what ^ ": same result after rewrite") true (r = r'')))
          corruptions);
    case "warm tune measures zero new configurations" (fun () ->
        Util.with_pool ~jobs:1 (fun () ->
            Cache.clear ();
            let m = Metrics.counter "exec.analytic_measures" in
            let base =
              Artemis_codegen.Lower.lower dev (smoother_kernel ()) O.default
            in
            let cold = Option.get (H.tune base) in
            let after_cold = Metrics.counter_value m in
            Alcotest.(check bool) "cold run measured" true (after_cold > 0.0);
            let warm = Option.get (H.tune base) in
            Alcotest.(check (float 0.0))
              "no new measurements" after_cold (Metrics.counter_value m);
            Alcotest.(check string) "same best plan"
              (Plan.label cold.best.plan) (Plan.label warm.best.plan);
            Alcotest.(check int) "same exploration" cold.explored warm.explored));
  ]

let eval_src =
  {|parameter L=24; iterator i, j; double u[L,L], v[L,L]; copyin v;
    stencil s0 (x, y) {
      double t = 0.25 * (y[i-1][j] + y[i+1][j] + y[i][j-1] + y[i][j+1]);
      x[i][j] = t + sqrt(fabs(t)) + min(t, fma(t, t, 0.5));
    }
    s0 (u, v); copyout u;|}

let eval_tests =
  [
    case "interpreter and split evaluators match bit-for-bit" (fun () ->
        let prog = Artemis.parse_string eval_src in
        let k = Artemis.first_kernel prog in
        let scalars = E.Reference.scalars_of_program prog in
        let run schedule =
          let store = E.Reference.store_of_program prog in
          E.Reference.run_kernel ~schedule store ~scalars k;
          E.Reference.find_array store "u"
        in
        Alcotest.(check (float 0.0))
          "split == interpreter" 0.0
          (E.Grid.max_abs_diff (run E.Eval.Rows) (run E.Eval.Interpret)));
    case "fuzz: split on/off summaries identical at jobs=4" (fun () ->
        let summary schedule =
          Util.with_pool ~jobs:4 (fun () -> fuzz_artifact ?schedule ())
        in
        Alcotest.(check string) "identical" (summary None)
          (summary (Some E.Eval.Interpret)));
  ]

let tests = ("par", pool_tests @ determinism_tests @ cache_tests @ eval_tests)
