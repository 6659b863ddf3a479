(* The parent side: run a workload as one warm-up pass plus timed
   passes, each in a fresh child process, one child at a time, then
   optionally one traced child that also runs the layer replay; reduce
   the children's reports to the end-to-end and per-layer metrics. *)

module Json = Artemis.Json

exception Child_failed of string

let num key doc =
  match Option.bind (Json.member key doc) Json.to_float_opt with
  | Some v -> v
  | None -> 0.0

let assoc key doc =
  match Json.member key doc with
  | Some (Json.Obj kvs) ->
    List.filter_map (fun (k, v) -> Option.map (fun f -> (k, f)) (Json.to_float_opt v)) kvs
  | _ -> []

let strings key doc =
  match Option.bind (Json.member key doc) Json.to_list_opt with
  | Some l -> List.filter_map Json.to_string_opt l
  | None -> []

let rec wait_pid pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_pid pid

(* Start one child pass and return its report.  The child inherits
   stderr, reports on a pipe, and is always reaped. *)
let spawn ~workload ~seed ~jobs ~traced ~quality ~only =
  let exe = Sys.executable_name in
  let spawn_ns = Pass.now_ns () in
  let args =
    [ exe; "child"; "--workload"; workload; "--seed"; string_of_int seed;
      "--spawn-ns"; Int64.to_string spawn_ns;
      "--trace"; (if traced then "1" else "0");
      "--quality"; (if quality then "1" else "0") ]
    @ match only with Some item -> [ "--only"; item ] | None -> []
  in
  let env =
    Array.append
      [| "ARTEMIS_JOBS=" ^ string_of_int jobs |]
      (Array.of_list
         (List.filter
            (fun kv -> not (String.starts_with ~prefix:"ARTEMIS_JOBS=" kv))
            (Array.to_list (Unix.environment ()))))
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    try Unix.create_process_env exe (Array.of_list args) env Unix.stdin wr Unix.stderr
    with e ->
      Unix.close rd;
      Unix.close wr;
      raise e
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let out = Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> In_channel.input_all ic) in
  match wait_pid pid with
  | Unix.WEXITED 0 -> (
    let line =
      String.split_on_char '\n' (String.trim out) |> List.rev |> function
      | l :: _ -> l
      | [] -> ""
    in
    try Json.parse line
    with Json.Parse_error e -> raise (Child_failed (workload ^ ": unreadable report: " ^ e)))
  | Unix.WEXITED n -> raise (Child_failed (Printf.sprintf "%s: child exited %d" workload n))
  | Unix.WSIGNALED n | Unix.WSTOPPED n ->
    raise (Child_failed (Printf.sprintf "%s: child killed by signal %d" workload n))

type stop =
  | Passes of int
  | Seconds of float

(* Timed passes are never fewer than this, whatever the time budget. *)
let min_passes = 3

type stat = {
  value : float;
  q1 : float;
  q3 : float;
  n : int;
}

let stat_of samples =
  let q1, q3 = Stats.quartiles samples in
  { value = Stats.median samples; q1; q3; n = List.length samples }

let exact v = { value = v; q1 = v; q3 = v; n = 1 }

type result = {
  workload : Spec.workload;
  attempted : int;
  failed : int;
  failures : string list;
  slowest_item : string;
  end_to_end : (string * stat) list;
  layers : (string * float) list;  (* empty unless traced *)
  self : (string * float) list;
  replay_detail : Json.t;
}

let get kvs k = Option.value ~default:0.0 (List.assoc_opt k kvs)

(* Layer metrics from the untraced timed passes (timers as medians,
   deterministic counts from the last pass) and the traced pass (self
   times, pool busy share, tracing overhead, replay). *)
let layer_metrics ~jobs ~passes ~wall ~traced =
  let timer k = Stats.median (List.map (fun d -> get (assoc "timers" d) k) passes) in
  let last = List.nth passes (List.length passes - 1) in
  let count k = get (assoc "counts" last) k in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let points =
    List.map (fun k -> count ("exec." ^ k ^ "_points"))
      [ "interior"; "halo"; "wavefront"; "guarded"; "eliminated" ]
  in
  let total_points = List.fold_left ( +. ) 0.0 points in
  let exec_s =
    List.fold_left (fun a k -> a +. timer k) 0.0
      [ "exec.reference_s"; "exec.blocks_s"; "exec.blocked_s"; "exec.wavefront_s" ]
  in
  let measured = count "tuner.configs_measured" in
  let hits = count "tuner.cache_hit" and misses = count "tuner.cache_miss" in
  let self = assoc "self" traced in
  let timers =
    List.map (fun k -> (k, timer k))
      [ "dsl.parse_s"; "lint.program_s"; "lint.plan_s"; "codegen.lower_s"; "codegen.emit_s";
        "exec.reference_s"; "exec.blocks_s"; "exec.blocked_s"; "exec.wavefront_s";
        "exec.store_s" ]
  in
  let counts =
    List.map (fun (m, k) -> (m, count k))
      [ ("lint.findings", "lint.findings");
        ("tuner.lint_pruned", "tuner.configs_lint_pruned");
        ("tuner.static_pruned", "tuner.configs_static_pruned");
        ("lower.plans", "lower.plans");
        ("codegen.emissions", "codegen.emissions");
        ("tuner.measured", "tuner.configs_measured");
        ("tuner.prerank_pruned", "tuner.configs_prerank_pruned");
        ("deep.versions", "deep.versions_explored");
        ("analytic.measures", "exec.analytic_measures");
        ("profile.classifications", "profile.classifications");
        ("pool.tasks", "pool.tasks");
        ("pool.maps", "pool.maps");
        ("exec.interior_points", "exec.interior_points");
        ("exec.halo_points", "exec.halo_points");
        ("exec.wavefront_points", "exec.wavefront_points");
        ("exec.guarded_points", "exec.guarded_points");
        ("exec.eliminated_points", "exec.eliminated_points");
        ("exec.launches", "exec.launches") ]
  in
  let unguarded =
    match points with
    | [ interior; _; wavefront; _; eliminated ] -> interior +. wavefront +. eliminated
    | _ -> 0.0
  in
  timers @ counts
  @ [ ("dsl.parse_mb_per_s", ratio (num "parsed_bytes" last /. 1e6) (timer "dsl.parse_s"));
      ("codegen.cuda_kb", num "cuda_bytes" last /. 1024.0);
      ("tuner.measured_frac", ratio measured (measured +. count "tuner.configs_pruned"));
      ("tuner.cache_hit_ratio", ratio hits (hits +. misses));
      ("exec.unguarded_frac", ratio unguarded total_points);
      ("exec.ns_per_point", ratio (exec_s *. 1e9) total_points);
      ( "pool.busy_frac",
        ratio (num "pool_task_s" traced) (float_of_int jobs *. num "pass_s" traced) );
      ("trace.overhead_frac", ratio (num "pass_s" traced) wall -. 1.0) ]
  @ List.map (fun k -> (k, get self (String.sub k 5 (String.length k - 5))))
      [ "self.tune.phase1"; "self.tune.phase2"; "self.deep.explore"; "self.deep.schedule";
        "self.optimize.baseline"; "self.optimize.finalize"; "self.exec.reference_kernel";
        "self.exec.kernel"; "self.exec.temporal" ]
  @ assoc "replay" traced

let measure ?only ?(warmup = true) ~seed ~stop ~traced (w : Spec.workload) =
  let spawn ~traced ~quality =
    spawn ~workload:w.wname ~seed ~jobs:w.jobs ~traced ~quality ~only
  in
  (* The warm-up pass, or without one the first timed pass, also prices
     the plans for plan quality, after its timing ends. *)
  let warm = if warmup then [ spawn ~traced:false ~quality:true ] else [] in
  let t0 = Pass.now_ns () in
  let rec timed acc =
    let n = List.length acc in
    let more =
      match stop with
      | Passes p -> n < p
      | Seconds s -> n < min_passes || Pass.seconds_since t0 < s
    in
    if more then timed (spawn ~traced:false ~quality:(warm = [] && acc = []) :: acc)
    else List.rev acc
  in
  let passes = timed [] in
  let traced_doc = if traced then Some (spawn ~traced:true ~quality:false) else None in
  let docs = warm @ passes @ Option.to_list traced_doc in
  let quality_doc = match warm with d :: _ -> d | [] -> List.hd passes in
  let tflops =
    match Option.bind (Json.member "tflops" quality_doc) Json.to_list_opt with
    | Some l ->
      List.filter_map Json.to_float_opt l
      |> List.filter (fun x -> x > 0.0 && Float.is_finite x)
    | None -> []
  in
  let per_pass key = List.map (num key) passes in
  let items = List.map (assoc "items") passes in
  let slowest_item, slowest =
    match Stats.slowest_item items with Some s -> s | None -> ("", 0.0)
  in
  let slowest_samples = List.map (fun it -> get it slowest_item) items in
  let wall = stat_of (per_pass "pass_s") in
  let end_to_end =
    [ ("setup_s", stat_of (per_pass "setup_s"));
      ("wall_s", wall);
      ("slowest_item_s", { (stat_of slowest_samples) with value = slowest });
      ("peak_rss_mb", { (stat_of (per_pass "peak_rss_mb")) with
                        value = List.fold_left Float.max 0.0 (per_pass "peak_rss_mb") });
      ("plan_tflops_geomean", exact (Stats.geomean tflops)) ]
  in
  let failures = List.concat_map (strings "failures") docs in
  let layers, self, replay_detail =
    match traced_doc with
    | Some t ->
      ( layer_metrics ~jobs:w.jobs ~passes ~wall:wall.value ~traced:t,
        assoc "self" t,
        Option.value ~default:Json.Null (Json.member "replay_detail" t) )
    | None -> ([], [], Json.Null)
  in
  {
    workload = w;
    attempted = List.fold_left (fun a d -> a + int_of_float (num "checks" d)) 0 docs;
    failed = List.length failures;
    failures;
    slowest_item;
    end_to_end;
    layers;
    self;
    replay_detail;
  }

let failed_frac r =
  if r.attempted = 0 then 0.0 else float_of_int r.failed /. float_of_int r.attempted

let value_json spec name v = Json.Obj [ ("value", Json.Float v); ("unit", Json.Str (Spec.unit_of spec name)) ]

(* The one-line result: end-to-end metrics untraced, layer metrics
   traced. *)
let result_line (spec : Spec.t) r ~trace =
  let metrics =
    if trace then
      List.map (fun (m : Spec.metric) -> (m.name, value_json spec m.name (get r.layers m.name)))
        spec.per_layer
    else
      List.map
        (fun (m : Spec.metric) ->
          (m.name, value_json spec m.name (List.assoc m.name r.end_to_end).value))
        spec.end_to_end
  in
  Json.Obj
    [ ("correct", Json.Bool (r.failed = 0 && r.attempted > 0));
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ("metrics", Json.Obj metrics) ]

let stat_json spec name (s : stat) =
  Json.Obj
    [ ("value", Json.Float s.value); ("unit", Json.Str (Spec.unit_of spec name));
      ("q1", Json.Float s.q1); ("q3", Json.Float s.q3); ("n", Json.Int s.n) ]

(* The full per-workload record [run] writes. *)
let result_json (spec : Spec.t) r =
  let w = r.workload in
  Json.Obj
    [ ("name", Json.Str w.wname); ("why", Json.Str w.why); ("jobs", Json.Int w.jobs);
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed); ("failed_frac", Json.Float (failed_frac r));
      ("failures", Json.List (List.map (fun s -> Json.Str s) r.failures));
      ("slowest_item", Json.Str r.slowest_item);
      ("end_to_end", Json.Obj (List.map (fun (k, s) -> (k, stat_json spec k s)) r.end_to_end));
      ( "layers",
        Json.Obj
          (List.map
             (fun (l : Spec.layer_metric) ->
               ( l.lname,
                 Json.Obj
                   [ ("value", Json.Float (get r.layers l.lname)); ("unit", Json.Str l.lunit);
                     ("layer", Json.Str l.layer); ("moves", Json.Str l.moves) ] ))
             Spec.layers) );
      ("self_s", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) r.self));
      ("replay", r.replay_detail) ]

let print_result (spec : Spec.t) r =
  let w = r.workload in
  Printf.printf "== %s (jobs=%d, %d checks, %d failed)\n" w.wname w.jobs r.attempted r.failed;
  List.iter
    (fun (k, s) ->
      Printf.printf "  %-22s %12.4f %-8s q1 %.4f  q3 %.4f  n %d\n" k s.value (Spec.unit_of spec k)
        s.q1 s.q3 s.n)
    r.end_to_end;
  Printf.printf "  %-22s %12.4f\n" "failed_frac" (failed_frac r);
  Printf.printf "  slowest item: %s\n" r.slowest_item;
  List.iter (fun f -> Printf.printf "  FAILED %s\n" f) r.failures;
  if r.layers <> [] then
    List.iter
      (fun (l : Spec.layer_metric) ->
        Printf.printf "  %-28s %14.4f %-8s [%s]\n" l.lname (get r.layers l.lname) l.lunit l.layer)
      Spec.layers;
  flush stdout
