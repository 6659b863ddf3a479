(* One pass in a fresh process: set up the workload, run every item
   once, and print what was measured as one JSON object on stdout.  A
   fresh process per pass gives each pass a cold measurement cache, as
   every [artemisc optimize] invocation sees one; the job count comes
   from [ARTEMIS_JOBS] in the environment the parent sets. *)

module Json = Artemis.Json
module Trace = Artemis.Trace

(* Counter totals by name, summed over label sets. *)
let counter_totals () =
  let tbl = Hashtbl.create 64 in
  (match Json.member "counters" (Artemis.Metrics.snapshot ()) with
   | Some (Json.List cs) ->
     List.iter
       (fun c ->
         match
           ( Option.bind (Json.member "name" c) Json.to_string_opt,
             Option.bind (Json.member "value" c) Json.to_float_opt )
         with
         | Some n, Some v ->
           Hashtbl.replace tbl n (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl n))
         | _ -> ())
       cs
   | _ -> ());
  tbl

let counter_deltas before after =
  Hashtbl.fold
    (fun n v acc ->
      (n, v -. Option.value ~default:0.0 (Hashtbl.find_opt before n)) :: acc)
    after []
  |> List.sort compare

(* Peak resident set of this process, in MB ([VmHWM]). *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f" (fun kb ->
              kb /. 1024.0)
        | _ -> scan ()
      in
      scan ())

(* Self time per span name: a span's duration minus the part of it its
   direct children on the same domain cover. *)
let self_times (events : Trace.event list) =
  let spans =
    List.filter (fun (e : Trace.event) -> e.phase = `Span) events
    |> List.sort (fun (a : Trace.event) (b : Trace.event) ->
           match compare a.tid b.tid with
           | 0 -> (
             match Float.compare a.ts_us b.ts_us with
             | 0 -> compare a.depth b.depth
             | c -> c)
           | c -> c)
  in
  let self = Hashtbl.create 32 in
  let add name s =
    Hashtbl.replace self name (s +. Option.value ~default:0.0 (Hashtbl.find_opt self name))
  in
  (* Open spans of the current domain, innermost first. *)
  let stack = ref [] in
  let tid = ref (-1) in
  List.iter
    (fun (e : Trace.event) ->
      if e.tid <> !tid then begin
        stack := [];
        tid := e.tid
      end;
      let rec pop () =
        match !stack with
        | (p : Trace.event) :: rest when p.ts_us +. p.dur_us <= e.ts_us ->
          stack := rest;
          pop ()
        | _ -> ()
      in
      pop ();
      (match !stack with
       | (p : Trace.event) :: _ -> add p.name (-.e.dur_us *. 1e-6)
       | [] -> ());
      add e.name (e.dur_us *. 1e-6);
      stack := e :: !stack)
    spans;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) self [] |> List.sort compare

let pool_task_seconds (events : Trace.event list) =
  List.fold_left
    (fun acc (e : Trace.event) ->
      if e.phase = `Span && e.name = "pool.task" then acc +. (e.dur_us *. 1e-6) else acc)
    0.0 events

let floats kvs = Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) kvs)

(* [spawn_ns] is the parent's monotonic clock just before it started this
   process, so set-up time covers process start, runtime and module
   initialization, and workload set-up. *)
let run ?only ~workload ~seed ~spawn_ns ~traced ~quality () =
  let items = Workloads.setup ~seed workload in
  let items =
    match only with
    | Some name -> List.filter (fun (it : Workloads.item) -> it.name = name) items
    | None -> items
  in
  if items = [] then invalid_arg "no item to run";
  let p = Pass.create () in
  let before = counter_totals () in
  if traced then Trace.start ();
  let t0 = Pass.now_ns () in
  let setup_s = Int64.to_float (Int64.sub t0 spawn_ns) *. 1e-9 in
  let times =
    List.map (fun (it : Workloads.item) -> (it.name, Pass.run_item p it.name it.run)) items
  in
  let pass_s = Pass.seconds_since t0 in
  if traced then Trace.stop ();
  let counts = counter_deltas before (counter_totals ()) in
  let events = if traced then Trace.events () else [] in
  let priced =
    if quality then
      List.filter_map
        (fun plan ->
          Option.map
            (fun (m : Artemis.Analytic.measurement) -> m.tflops)
            (Artemis.Analytic.try_measure plan))
        p.plans
    else []
  in
  let replay_metrics, replay_detail =
    if traced then Replay.run ~bases:(List.rev p.bases) ~plans:(List.rev p.plans)
    else ([], Json.Null)
  in
  let doc =
    Json.Obj
      [ ("workload", Json.Str workload);
        ("jobs", Json.Int (Artemis.Pool.jobs ()));
        ("parallelism", Json.Int (Artemis.Pool.parallelism ()));
        ("setup_s", Json.Float setup_s);
        ("pass_s", Json.Float pass_s);
        ("peak_rss_mb", Json.Float (peak_rss_mb ()));
        ("checks", Json.Int p.checks);
        ("failures", Json.List (List.rev_map (fun s -> Json.Str s) p.failures));
        ("items", floats times);
        ("timers", floats (Hashtbl.fold (fun k v acc -> (k, v) :: acc) p.timers [] |> List.sort compare));
        ("counts", floats counts);
        ("parsed_bytes", Json.Int p.parsed_bytes);
        ("cuda_bytes", Json.Int p.cuda_bytes);
        ("tflops", Json.List (List.map (fun x -> Json.Float x) (List.rev p.tflops @ priced)));
        ("self", floats (self_times events));
        ("pool_task_s", Json.Float (pool_task_seconds events));
        ("replay", floats replay_metrics);
        ("replay_detail", replay_detail) ]
  in
  print_string (Json.to_string doc);
  print_newline ()
