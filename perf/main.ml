(* Host benchmark of the ARTEMIS pipeline (see perf/README.md).

     main.exe --workload W --seed N --seconds S --trace 0|1
         one workload: timed passes for at least S seconds; prints the
         end-to-end metrics (trace 0) or the layer metrics (trace 1), the
         last line being one JSON object
     main.exe run [--seed N] [--out FILE]
         every workload with its configured pass count, traced pass and
         layer replay; writes the full result JSON
     main.exe compare OLD.json NEW.json
         verdict per (end-to-end metric, workload); exit 1 on a
         regression or a changed deterministic count
     main.exe smoke
         each workload's smallest item, one pass, JSON shape checked

   Metric names, units and bounds come from BENCHMARK.json in the current
   directory. *)

open Artemis_perf
module Json = Artemis.Json

let usage () =
  prerr_string
    "usage: main.exe --workload W --seed N --seconds S --trace 0|1\n\
    \       main.exe run [--seed N] [--out FILE]\n\
    \       main.exe compare OLD.json NEW.json\n\
    \       main.exe smoke\n";
  exit 2

(* [--key value] pairs and positional arguments. *)
let parse_args args =
  let rec go opts pos = function
    | key :: value :: rest when String.starts_with ~prefix:"--" key ->
      go ((String.sub key 2 (String.length key - 2), value) :: opts) pos rest
    | [ key ] when String.starts_with ~prefix:"--" key -> usage ()
    | a :: rest -> go opts (a :: pos) rest
    | [] -> (List.rev opts, List.rev pos)
  in
  go [] [] args

let int_opt opts key ~default =
  match List.assoc_opt key opts with
  | None -> default
  | Some v -> (
    match int_of_string_opt v with
    | Some n -> n
    | None ->
      Printf.eprintf "--%s: not an integer: %s\n" key v;
      exit 2)

let meta ~seed (spec : Spec.t) =
  let tm = Artemis_exec.Traffic.default_model in
  let dev = Artemis.Device.p100 in
  let machine_model =
    Json.Obj
      [ ("device", Json.Str dev.name);
        ("alpha_tflops", Json.Float (dev.peak_dp_flops /. 1e12));
        ("knee_dram", Json.Float (Artemis.Device.knee_dram dev));
        ("knee_tex", Json.Float (Artemis.Device.knee_tex dev));
        ("knee_shm", Json.Float (Artemis.Device.knee_shm dev));
        ("halo_miss", Json.Float tm.halo_miss);
        ("l2_hit_floor", Json.Float tm.l2_hit_floor) ]
  in
  let jobs = List.fold_left (fun a (w : Spec.workload) -> max a w.jobs) 1 spec.workloads in
  match Artemis.Bench_diff.meta ~jobs ~machine_model with
  | Json.Obj kvs ->
    Json.Obj
      (kvs
      @ [ ("seed", Json.Int seed);
          ( "workload_jobs",
            Json.Obj
              (List.map (fun (w : Spec.workload) -> (w.wname, Json.Int w.jobs)) spec.workloads) );
          ("nproc_assumed", Json.Int Spec.nproc);
          ("nproc", Json.Int (Domain.recommended_domain_count ())) ])
  | other -> other

let measure_one spec opts =
  let name = Option.value ~default:"" (List.assoc_opt "workload" opts) in
  let w = Spec.workload spec name in
  let seed = int_opt opts "seed" ~default:Spec.default_seed in
  let seconds = int_opt opts "seconds" ~default:spec.run_seconds in
  let trace = int_opt opts "trace" ~default:0 = 1 in
  let r =
    Bench.measure ~seed ~stop:(Bench.Seconds (float_of_int seconds)) ~traced:trace w
  in
  Bench.print_result spec r;
  print_endline (Json.to_string (Bench.result_line spec r ~trace))

let run spec opts =
  let seed = int_opt opts "seed" ~default:Spec.default_seed in
  let out = Option.value ~default:"perf-results.json" (List.assoc_opt "out" opts) in
  let t0 = Unix.gettimeofday () in
  let results =
    List.map
      (fun (w : Spec.workload) ->
        let r = Bench.measure ~seed ~stop:(Bench.Passes w.passes) ~traced:true w in
        Bench.print_result spec r;
        r)
      spec.workloads
  in
  let doc =
    Json.Obj
      [ ("meta", meta ~seed spec);
        ("workloads", Json.List (List.map (Bench.result_json spec) results)) ]
  in
  Out_channel.with_open_bin out (fun oc ->
      output_string oc (Json.to_string ~indent:true doc ^ "\n"));
  Printf.printf "wrote %s (%.0f s)\n" out (Unix.gettimeofday () -. t0);
  if List.exists (fun (r : Bench.result) -> r.failed > 0) results then exit 1

let compare spec = function
  | [ a; b ] ->
    let read path = Json.parse (In_channel.with_open_bin path In_channel.input_all) in
    if not (Compare.run spec ~old_doc:(read a) ~new_doc:(read b)) then exit 1
  | _ -> usage ()

(* Keys and value shapes of a result line. *)
let line_ok (metrics : Spec.metric list) line =
  let doc = Json.parse (Json.to_string line) in
  Json.keys doc = [ "correct"; "attempted"; "failed"; "metrics" ]
  && Json.member "correct" doc = Some (Json.Bool true)
  &&
  match Json.member "metrics" doc with
  | Some m ->
    Json.keys m = List.map (fun (x : Spec.metric) -> x.name) metrics
    && List.for_all
         (fun (x : Spec.metric) ->
           match Json.member x.name m with
           | Some v ->
             Json.keys v = [ "value"; "unit" ]
             && Option.fold ~none:false ~some:Float.is_finite
                  (Option.bind (Json.member "value" v) Json.to_float_opt)
             && Option.bind (Json.member "unit" v) Json.to_string_opt = Some x.unit_
           | None -> false)
         metrics
  | None -> false

let smoke (spec : Spec.t) =
  let t0 = Unix.gettimeofday () in
  let ok =
    List.for_all
      (fun (w : Spec.workload) ->
        let r =
          Bench.measure ~only:(Spec.smoke_item w.wname) ~warmup:false ~seed:Spec.default_seed
            ~stop:(Bench.Passes 1) ~traced:true w
        in
        let ok =
          line_ok spec.end_to_end (Bench.result_line spec r ~trace:false)
          && line_ok spec.per_layer (Bench.result_line spec r ~trace:true)
        in
        Printf.printf "smoke %-16s %-28s %s\n%!" w.wname (Spec.smoke_item w.wname)
          (if ok then "ok" else "BAD");
        ok)
      spec.workloads
  in
  Printf.printf "smoke: %.2f s\n" (Unix.gettimeofday () -. t0);
  if not ok then exit 1

let child opts =
  let workload = Option.value ~default:"" (List.assoc_opt "workload" opts) in
  let spawn_ns =
    match Option.bind (List.assoc_opt "spawn-ns" opts) Int64.of_string_opt with
    | Some t -> t
    | None -> Pass.now_ns ()
  in
  Child.run ?only:(List.assoc_opt "only" opts) ~workload
    ~seed:(int_opt opts "seed" ~default:Spec.default_seed)
    ~spawn_ns
    ~traced:(int_opt opts "trace" ~default:0 = 1)
    ~quality:(int_opt opts "quality" ~default:0 = 1)
    ()

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let cmd, args =
    match args with
    | c :: rest when not (String.starts_with ~prefix:"--" c) -> (c, rest)
    | _ -> ("", args)
  in
  let opts, pos = parse_args args in
  try
    if cmd = "child" then child opts
    else begin
      let spec = Spec.load "BENCHMARK.json" in
      match cmd with
      | "" when List.mem_assoc "workload" opts -> measure_one spec opts
      | "run" -> run spec opts
      | "compare" -> compare spec pos
      | "smoke" -> smoke spec
      | _ -> usage ()
    end
  with
  | Spec.Invalid msg ->
    prerr_endline ("perf: " ^ msg);
    exit 2
  | Bench.Child_failed msg ->
    prerr_endline ("perf: " ^ msg);
    exit 1
