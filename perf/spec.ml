(* The benchmark's definition.  Workload names and whys, metric names,
   units, directions and regression bounds live in BENCHMARK.json at the
   repository root and are read from there.  What that file's schema
   has no room for lives here: the job count and pass count per
   workload, the absolute set-up bound, and each layer metric's layer and
   the end-to-end metric it should move.  [load] refuses a BENCHMARK.json
   whose names or units disagree with these tables, so the two cannot
   drift. *)

module Json = Artemis.Json

let default_seed = 42

(* Cores the pass counts and job counts were sized for: children run one
   at a time, each with at most [nproc] domains. *)
let nproc = 2

(* Set-up time may also worsen by this many seconds when that is more
   than its relative bound. *)
let setup_abs_bound_s = 0.02

(* name, jobs (ARTEMIS_JOBS of every child), timed passes for [run]. *)
let settings =
  [ ("tune-spatial", 1, 5);
    ("deep-iterative", 2, 5);
    ("exec-suite", 1, 10);
    ("compile-corpus", 1, 20) ]

(* The cheapest item of each workload: what [smoke] runs. *)
let smoke_item = function
  | "tune-spatial" -> "hypterm/hypterm"
  | "deep-iterative" -> "smooth2d-iter"
  | "exec-suite" -> "gs2d"
  | _ -> "gen-0"

type layer_metric = {
  lname : string;
  lunit : string;
  layer : string;  (* module, with its lib/ directory *)
  moves : string;  (* the end-to-end metric and workloads it should move *)
  run_only : bool;
      (* a timing only some workloads exercise: it reads 0 on the others,
         and a time that reads the same on every run is indistinguishable
         from a broken timer, so it is reported in [run]'s result JSON but
         not listed in BENCHMARK.json *)
}

let layers =
  let m ?(run_only = false) lname lunit layer moves = { lname; lunit; layer; moves; run_only } in
  let compile = "wall_s on compile-corpus" in
  let tune = "wall_s and slowest_item_s on tune-spatial and deep-iterative" in
  let deep = "wall_s on deep-iterative" in
  let exec = "wall_s on exec-suite (sweep) and compile-corpus (compile)" in
  let quality = "plan_tflops_geomean on tune-spatial and deep-iterative" in
  let profile = "wall_s on tune-spatial (small)" in
  [ m "dsl.parse_s" "s" "dsl (Lexer/Parser/Check)" compile ~run_only:true;
    m "dsl.parse_mb_per_s" "MB/s" "dsl (Lexer/Parser/Check)" compile ~run_only:true;
    m "lint.program_s" "s" "lint" compile ~run_only:true;
    m "lint.plan_s" "s" "lint" compile ~run_only:true;
    m "lint.findings" "count" "lint" compile;
    m "lint.launch_us" "us" "lint" "wall_s on tune-spatial (launch pruning)";
    m "static.plan_us" "us" "static" "wall_s on tune-spatial (static pruning)";
    m "tuner.lint_pruned" "count" "lint" "wall_s on tune-spatial";
    m "tuner.static_pruned" "count" "static" "wall_s on tune-spatial";
    m "ir.validate_us" "us" "ir (Validate)" "wall_s on tune-spatial";
    m "codegen.lower_s" "s" "codegen (Lower)" compile ~run_only:true;
    m "codegen.emit_s" "s" "codegen (Cuda_emit)" compile ~run_only:true;
    m "codegen.cuda_kb" "KB" "codegen (Cuda_emit)" compile;
    m "lower.plans" "count" "codegen (Lower)" compile;
    m "codegen.emissions" "count" "codegen (Cuda_emit)" compile;
    m "space.stepping_us" "us" "tune (Space)" tune;
    m "tuner.measured" "count" "tune (Hierarchical)" tune;
    m "tuner.prerank_pruned" "count" "tune (Hierarchical)" tune;
    m "tuner.measured_frac" "ratio" "tune (Hierarchical)" tune;
    m "tuner.cache_hit_ratio" "ratio" "tune (Measure_cache)" tune;
    m "deep.versions" "count" "tune (Deep)" deep;
    m "self.tune.phase1" "s" "tune (Hierarchical)" tune ~run_only:true;
    m "self.tune.phase2" "s" "tune (Hierarchical)" tune ~run_only:true;
    m "self.deep.explore" "s" "tune (Deep)" deep ~run_only:true;
    m "self.deep.schedule" "s" "tune (Deep)" deep ~run_only:true;
    m "predict.rank_us" "us" "predict (Predict, Warp_model)" tune;
    m "predict.spearman" "ratio" "predict (Predict, Warp_model)" quality;
    m "predict.winner_kept" "ratio" "predict (Predict, Warp_model)" quality;
    m "traffic.ctx_us" "us" "traffic" "wall_s and slowest_item_s, most on tune-spatial";
    m "traffic.counters_us" "us" "traffic" "wall_s and slowest_item_s, most on tune-spatial";
    m "analytic.measure_us" "us" "analytic (+ Timing)" tune;
    m "analytic.measures" "count" "analytic (+ Timing)" tune;
    m "profile.classifications" "count" "profile (Classify, Hints)" profile;
    m "self.optimize.baseline" "s" "profile (Classify, Hints)" profile ~run_only:true;
    m "self.optimize.finalize" "s" "profile (Classify, Hints)" profile ~run_only:true;
    m "pool.tasks" "count" "par (Pool)" (deep ^ "; zero elsewhere");
    m "pool.maps" "count" "par (Pool)" deep;
    m "pool.busy_frac" "ratio" "par (Pool)" (deep ^ "; zero elsewhere");
    m "exec.reference_s" "s" "exec (Reference)" exec ~run_only:true;
    m "exec.blocks_s" "s" "exec (Kernel_exec, Runner)" exec ~run_only:true;
    m "exec.blocked_s" "s" "exec (Kernel_exec)" "wall_s on exec-suite" ~run_only:true;
    m "exec.wavefront_s" "s" "exec (Wavefront)" "wall_s on exec-suite" ~run_only:true;
    m "exec.store_s" "s" "exec (Reference, Grid)" exec ~run_only:true;
    m "exec.interior_points" "count" "exec (Region)" exec;
    m "exec.halo_points" "count" "exec (Region)" exec;
    m "exec.wavefront_points" "count" "exec (Wavefront)" "wall_s on exec-suite";
    m "exec.guarded_points" "count" "exec (Eval)" exec;
    m "exec.eliminated_points" "count" "exec (Eval)" exec;
    m "exec.unguarded_frac" "ratio" "exec (Eval, Region)" exec;
    m "exec.ns_per_point" "ns" "exec" exec ~run_only:true;
    m "exec.launches" "count" "exec (Runner)" exec;
    m "self.exec.reference_kernel" "s" "exec (Reference)" exec ~run_only:true;
    m "self.exec.kernel" "s" "exec (Kernel_exec)" exec ~run_only:true;
    m "self.exec.temporal" "s" "exec (Kernel_exec)" "wall_s on exec-suite" ~run_only:true;
    m "trace.overhead_frac" "ratio" "obs" "none; it keeps the traced run honest" ]

(* Layer metrics that must repeat exactly between two runs of the same
   code at the same job counts; [compare] fails on any difference. *)
let deterministic name =
  List.mem name [ "plan_tflops_geomean"; "analytic.measures"; "codegen.cuda_kb"; "lint.findings" ]
  || String.starts_with ~prefix:"tuner." name
  || (String.starts_with ~prefix:"exec." name && String.ends_with ~suffix:"_points" name)

type direction = Stats.direction

type metric = {
  name : string;
  unit_ : string;
  better : direction;
  bound : float;  (* relative; 0 for layer metrics *)
}

type workload = {
  wname : string;
  why : string;
  jobs : int;
  passes : int;
}

type t = {
  run_seconds : int;
  workloads : workload list;
  end_to_end : metric list;
  per_layer : metric list;
}

exception Invalid of string

let fail fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt

let str key j =
  match Option.bind (Json.member key j) Json.to_string_opt with
  | Some s -> s
  | None -> fail "BENCHMARK.json: missing string %S" key

let list key j =
  match Option.bind (Json.member key j) Json.to_list_opt with
  | Some l -> l
  | None -> fail "BENCHMARK.json: missing list %S" key

let metric j =
  {
    name = str "name" j;
    unit_ = str "unit" j;
    better =
      (match str "better" j with
       | "lower" -> Stats.Lower
       | "higher" -> Stats.Higher
       | b -> fail "BENCHMARK.json: metric %s: better=%S" (str "name" j) b);
    bound = Option.value ~default:0.0 (Option.bind (Json.member "bound" j) Json.to_float_opt);
  }

let same_names what expected got =
  let sort = List.sort compare in
  if sort expected <> sort got then
    fail "BENCHMARK.json %s [%s] disagree with perf/ [%s]" what
      (String.concat ", " got) (String.concat ", " expected)

let end_to_end_names =
  [ "setup_s"; "wall_s"; "slowest_item_s"; "peak_rss_mb"; "plan_tflops_geomean" ]

let of_json j =
  let workloads =
    List.map
      (fun w ->
        let wname = str "name" w in
        match List.find_opt (fun (n, _, _) -> n = wname) settings with
        | Some (_, jobs, passes) -> { wname; why = str "why" w; jobs; passes }
        | None -> fail "BENCHMARK.json: workload %s has no settings in perf/" wname)
      (list "workloads" j)
  in
  let end_to_end = List.map metric (list "end_to_end" j) in
  let per_layer = List.map metric (list "per_layer" j) in
  same_names "workloads" (List.map (fun (n, _, _) -> n) settings)
    (List.map (fun w -> w.wname) workloads);
  same_names "end_to_end metrics" end_to_end_names (List.map (fun m -> m.name) end_to_end);
  same_names "per_layer metrics"
    (List.filter_map (fun l -> if l.run_only then None else Some l.lname) layers)
    (List.map (fun m -> m.name) per_layer);
  List.iter
    (fun m ->
      let l = List.find (fun l -> l.lname = m.name) layers in
      if l.lunit <> m.unit_ then
        fail "BENCHMARK.json: %s has unit %S, perf/ says %S" m.name m.unit_ l.lunit)
    per_layer;
  let run_seconds =
    match Option.bind (Json.member "run_seconds" j) Json.to_float_opt with
    | Some s -> int_of_float s
    | None -> fail "BENCHMARK.json: missing run_seconds"
  in
  { run_seconds; workloads; end_to_end; per_layer }

let load path =
  let text =
    try In_channel.with_open_bin path In_channel.input_all
    with Sys_error e -> fail "cannot read %s" e
  in
  of_json (try Json.parse text with Json.Parse_error e -> fail "%s: %s" path e)

let workload t name =
  match List.find_opt (fun w -> w.wname = name) t.workloads with
  | Some w -> w
  | None -> fail "unknown workload %S (have: %s)" name
              (String.concat ", " (List.map (fun w -> w.wname) t.workloads))

let unit_of t name =
  match List.find_opt (fun m -> m.name = name) t.end_to_end with
  | Some m -> m.unit_
  | None -> (
    match List.find_opt (fun l -> l.lname = name) layers with Some l -> l.lunit | None -> "")
