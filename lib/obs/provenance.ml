(* Plan-provenance report builder.  Pure Json -> Json over the journal
   event stream; every section tolerates missing fields so partial
   journals (or ones written by newer code) still render. *)

let str k ev = Option.bind (Json.member k ev) Json.to_string_opt
let num k ev = Option.bind (Json.member k ev) Json.to_float_opt

let bool_opt k ev =
  match Json.member k ev with Some (Json.Bool b) -> Some b | _ -> None

let kind ev = Option.value ~default:"" (str "event" ev)
let of_kind k events = List.filter (fun ev -> kind ev = k) events

(* Drop the journal bookkeeping fields when embedding an event. *)
let strip ev =
  match ev with
  | Json.Obj fields ->
    Json.Obj (List.filter (fun (k, _) -> k <> "seq" && k <> "event") fields)
  | other -> other

(* ------------------------------------------------------------------ *)
(* Tuner runs                                                          *)
(* ------------------------------------------------------------------ *)

type run = { info : Json.t option; candidates : Json.t list; preranks : Json.t list }

(* Events arrive in journal order: a [tuner.run] opens a run and the
   [tuner.candidate]s (and per-phase [tuner.prerank] summaries) that
   follow belong to it.  Candidates with no opening event (not produced
   by our writers, but possible in a hand-cut journal) get a headerless
   run. *)
let split_runs events =
  let finish current runs =
    match current with
    | None -> runs
    | Some r ->
      { r with candidates = List.rev r.candidates; preranks = List.rev r.preranks }
      :: runs
  in
  let runs, current =
    List.fold_left
      (fun (runs, current) ev ->
        match kind ev with
        | "tuner.run" ->
          (finish current runs, Some { info = Some ev; candidates = []; preranks = [] })
        | "tuner.candidate" -> (
          match current with
          | Some r -> (runs, Some { r with candidates = ev :: r.candidates })
          | None -> (runs, Some { info = None; candidates = [ ev ]; preranks = [] }))
        | "tuner.prerank" -> (
          match current with
          | Some r -> (runs, Some { r with preranks = ev :: r.preranks })
          | None -> (runs, Some { info = None; candidates = []; preranks = [ ev ] }))
        | _ -> (runs, current))
      ([], None) events
  in
  List.rev (finish current runs)

let decision c = Option.value ~default:"" (str "decision" c)
let tflops_of c = Option.value ~default:0.0 (num "tflops" c)

let run_report r =
  let cands = r.candidates in
  let measured =
    List.filter (fun c -> decision c = "keep" || decision c = "drop") cands
  in
  let pruned = List.filter (fun c -> decision c = "lint-pruned") cands in
  let static_pruned = List.filter (fun c -> decision c = "static-pruned") cands in
  let prerank_pruned = List.filter (fun c -> decision c = "prerank-pruned") cands in
  let cache_count v =
    List.length (List.filter (fun c -> str "cache" c = Some v) cands)
  in
  let hits = cache_count "hit" and misses = cache_count "miss" in
  let prunes_of cs =
    List.filter_map (fun c -> str "lint_code" c) cs
    |> List.sort_uniq compare
    |> List.map (fun code ->
           ( code,
             Json.Int
               (List.length
                  (List.filter (fun c -> str "lint_code" c = Some code) cs)) ))
  in
  let prunes = prunes_of pruned in
  let static_prunes = prunes_of static_pruned in
  (* Measured candidates ranked best-first; ties keep journal order
     (stable sort), so the ranking is as deterministic as the journal. *)
  let ranked_measured =
    List.stable_sort (fun a b -> compare (tflops_of b) (tflops_of a)) measured
  in
  let best = match ranked_measured with c :: _ -> Some c | [] -> None in
  let best_tf = match best with Some c -> tflops_of c | None -> 0.0 in
  let entry status extra c =
    match strip c with
    | Json.Obj fields -> Json.Obj ((("status", Json.Str status) :: extra) @ fields)
    | other -> other
  in
  let ranked =
    (match ranked_measured with
    | [] -> []
    | winner :: rest ->
      entry "won" [ ("margin_pct", Json.Float 0.0) ] winner
      :: List.map
           (fun c ->
             let margin =
               if best_tf > 0.0 then (best_tf -. tflops_of c) /. best_tf *. 100.0
               else 0.0
             in
             entry "lost" [ ("margin_pct", Json.Float margin) ] c)
           rest)
    @ List.map (entry "lint-pruned" []) pruned
    @ List.map (entry "static-pruned" []) static_pruned
    @ List.map (entry "prerank-pruned" []) prerank_pruned
  in
  let info_num k = match r.info with Some i -> num k i | None -> None in
  let info_str k = match r.info with Some i -> str k i | None -> None in
  let knee cls = Option.value ~default:0.0 (info_num ("knee_" ^ cls)) in
  (* Roofline-style breakdown of the winner: bytes by access class
     against the machine model's knees (alpha/beta). *)
  let traffic =
    match best with
    | None -> Json.Null
    | Some c ->
      let f k = Option.value ~default:0.0 (num k c) in
      let cls name =
        let oi = f ("oi_" ^ name) and kn = knee name in
        ( name,
          Json.Obj
            [ ("bytes", Json.Float (f (name ^ "_bytes")));
              ("oi", Json.Float oi); ("knee", Json.Float kn);
              ("bound", Json.Str (if oi < kn then "bandwidth" else "compute")) ]
        )
      in
      Json.Obj
        [ ( "plan",
            match str "plan" c with Some p -> Json.Str p | None -> Json.Null );
          ("tflops", Json.Float (f "tflops"));
          (* Prediction vs measurement for the winner: present when the
             pre-ranking model scored this candidate before it was
             measured. *)
          ( "predicted_time_s",
            match num "predicted_time_s" c with
            | Some v -> Json.Float v
            | None -> Json.Null );
          ( "time_s",
            match num "time_s" c with Some v -> Json.Float v | None -> Json.Null );
          ( "prediction_error_pct",
            match (num "predicted_time_s" c, num "time_s" c) with
            | Some p, Some m when m > 0.0 -> Json.Float ((p -. m) /. m *. 100.0)
            | _ -> Json.Null );
          ("useful_flops", Json.Float (f "useful_flops"));
          ("total_flops", Json.Float (f "total_flops"));
          ("spill_bytes", Json.Float (f "spill_bytes"));
          ("classes", Json.Obj [ cls "dram"; cls "tex"; cls "shm" ]);
          ( "bottleneck",
            match str "bottleneck" c with
            | Some s -> Json.Str s
            | None -> Json.Null ) ]
  in
  let opt_str k =
    match info_str k with Some s -> Json.Str s | None -> Json.Null
  in
  Json.Obj
    [ ("kernel", opt_str "kernel"); ("device", opt_str "device");
      ( "alpha_tflops",
        match info_num "alpha_tflops" with
        | Some a -> Json.Float a
        | None -> Json.Null );
      ( "knees",
        Json.Obj
          [ ("dram", Json.Float (knee "dram")); ("tex", Json.Float (knee "tex"));
            ("shm", Json.Float (knee "shm")) ] );
      ("candidates", Json.Int (List.length cands));
      ("measured", Json.Int (List.length measured));
      ("lint_pruned", Json.Int (List.length pruned));
      ("static_pruned", Json.Int (List.length static_pruned));
      ("prerank_pruned", Json.Int (List.length prerank_pruned));
      ("cache_hits", Json.Int hits); ("cache_misses", Json.Int misses);
      ("prunes_by_code", Json.Obj prunes);
      ("static_prunes_by_code", Json.Obj static_prunes);
      ("prerank", Json.List (List.map strip r.preranks));
      ("ranked", Json.List ranked);
      ("traffic", traffic) ]

(* ------------------------------------------------------------------ *)
(* Other sections                                                      *)
(* ------------------------------------------------------------------ *)

let deep_section events =
  let versions = of_kind "deep.version" events in
  let results = of_kind "deep.result" events in
  let schedules = of_kind "deep.schedule" events in
  if versions = [] && results = [] && schedules = [] then Json.Null
  else
    let last l = match List.rev l with x :: _ -> Some x | [] -> None in
    let from_last l k =
      match last l with
      | Some ev -> Option.value ~default:Json.Null (Json.member k ev)
      | None -> Json.Null
    in
    Json.Obj
      [ ("versions", Json.List (List.map strip versions));
        ("cusp", from_last results "cusp");
        ("tipping_point", from_last results "tipping_point");
        ("schedules", Json.List (List.map strip schedules)) ]

let fuzz_section events =
  let cases = of_kind "fuzz.case" events in
  if cases = [] then Json.Null
  else
    let count p = List.length (List.filter p cases) in
    let sum k =
      List.fold_left (fun a c -> a +. Option.value ~default:0.0 (num k c)) 0.0 cases
    in
    Json.Obj
      [ ("cases", Json.Int (List.length cases));
        ("ok", Json.Int (count (fun c -> str "verdict" c = Some "ok")));
        ("findings", Json.Int (count (fun c -> str "verdict" c = Some "finding")));
        ("trials", Json.Float (sum "trials"));
        ("trials_skipped", Json.Float (sum "skipped"));
        ("plans_checked", Json.Float (sum "plans"));
        ("verdicts", Json.List (List.map strip cases)) ]

let exec_section events =
  let splits = of_kind "exec.split" events in
  if splits = [] then Json.Null
  else
    let key ev =
      ( Option.value ~default:"" (str "kernel" ev),
        Option.value ~default:"" (str "executor" ev) )
    in
    let keys = List.sort_uniq compare (List.map key splits) in
    let groups =
      List.map
        (fun ((kernel, executor) as k) ->
          let evs = List.filter (fun ev -> key ev = k) splits in
          let sum f =
            List.fold_left
              (fun a ev -> a +. Option.value ~default:0.0 (num f ev))
              0.0 evs
          in
          let split_on =
            List.length (List.filter (fun ev -> bool_opt "split" ev = Some true) evs)
          in
          let interior = sum "interior_points" in
          let wavefront = sum "wavefront_points" and guarded = sum "guarded_points" in
          let eliminated = sum "eliminated_points" in
          let total = interior +. wavefront +. guarded +. eliminated in
          (* Unguarded fast-path fraction: interior rows, wavefront rows,
             and guard-failing points outside the in-bounds box (skipped
             outright); only the whole-region guarded fallback pays the
             per-point guard. *)
          let fast = interior +. wavefront +. eliminated in
          Json.Obj
            [ ("kernel", Json.Str kernel); ("executor", Json.Str executor);
              ("launches", Json.Int (List.length evs));
              ("split_launches", Json.Int split_on);
              ("interior_points", Json.Float interior);
              ("wavefront_points", Json.Float wavefront);
              ("guarded_points", Json.Float guarded);
              ("eliminated_points", Json.Float eliminated);
              ( "interior_fraction",
                Json.Float (if total > 0.0 then fast /. total else 0.0) ) ])
        keys
    in
    Json.Obj
      [ ("launches", Json.Int (List.length splits)); ("kernels", Json.List groups) ]

let optimize_section events =
  let baselines = of_kind "optimize.baseline" events in
  let results = of_kind "optimize.result" events in
  if baselines = [] && results = [] then Json.Null
  else
    Json.Obj
      [ ("baselines", Json.List (List.map strip baselines));
        ("results", Json.List (List.map strip results)) ]

let int_of j = match j with Json.Int i -> i | _ -> 0

let report ?program events =
  let runs = split_runs events in
  let run_docs = List.map run_report runs in
  let total k =
    List.fold_left
      (fun a doc -> a + int_of (Option.value ~default:Json.Null (Json.member k doc)))
      0 run_docs
  in
  let hits = total "cache_hits" and misses = total "cache_misses" in
  let lookups = hits + misses in
  Json.Obj
    [ ("schema_version", Json.Int 1);
      ( "program",
        match program with Some p -> Json.Str p | None -> Json.Null );
      ("event_count", Json.Int (List.length events));
      ( "summary",
        Json.Obj
          [ ("tuner_runs", Json.Int (List.length runs));
            ("candidates", Json.Int (total "candidates"));
            ("measured", Json.Int (total "measured"));
            ("lint_pruned", Json.Int (total "lint_pruned"));
            ("static_pruned", Json.Int (total "static_pruned"));
            ("prerank_pruned", Json.Int (total "prerank_pruned"));
            ("cache_hits", Json.Int hits); ("cache_misses", Json.Int misses);
            ( "cache_hit_rate",
              Json.Float
                (if lookups > 0 then float_of_int hits /. float_of_int lookups
                 else 0.0) ) ] );
      ("runs", Json.List run_docs);
      ("optimize", optimize_section events);
      ("deep", deep_section events);
      ("fuzz", fuzz_section events);
      ("exec", exec_section events) ]

(* ------------------------------------------------------------------ *)
(* Text rendering                                                      *)
(* ------------------------------------------------------------------ *)

let g v = Printf.sprintf "%.4g" v
let num_or k ev d = Option.value ~default:d (num k ev)
let str_or k ev d = Option.value ~default:d (str k ev)

let render doc =
  let b = Buffer.create 2048 in
  let section k = Option.value ~default:Json.Null (Json.member k doc) in
  Printf.bprintf b "provenance report: %s (%d event(s))\n"
    (str_or "program" doc "<journal>")
    (int_of (section "event_count"));
  (match section "summary" with
  | Json.Obj _ as s ->
    Printf.bprintf b
      "summary: %g tuner run(s), %g candidate(s) — %g measured, %g \
       lint-pruned, %g static-pruned, %g prerank-pruned; cache %g \
       hit / %g miss (%.1f%% hit rate)\n"
      (num_or "tuner_runs" s 0.0) (num_or "candidates" s 0.0)
      (num_or "measured" s 0.0) (num_or "lint_pruned" s 0.0)
      (num_or "static_pruned" s 0.0)
      (num_or "prerank_pruned" s 0.0)
      (num_or "cache_hits" s 0.0)
      (num_or "cache_misses" s 0.0)
      (100.0 *. num_or "cache_hit_rate" s 0.0)
  | _ -> ());
  let runs =
    match Json.to_list_opt (section "runs") with Some l -> l | None -> []
  in
  List.iteri
    (fun i r ->
      Printf.bprintf b "\nrun %d: kernel %s on %s (alpha %s TF/s" (i + 1)
        (str_or "kernel" r "?") (str_or "device" r "?")
        (g (num_or "alpha_tflops" r 0.0));
      (match Json.member "knees" r with
      | Some k ->
        Printf.bprintf b ", knees dram/tex/shm = %s/%s/%s"
          (g (num_or "dram" k 0.0)) (g (num_or "tex" k 0.0))
          (g (num_or "shm" k 0.0))
      | None -> ());
      Printf.bprintf b ")\n";
      (match Json.member "prunes_by_code" r with
      | Some (Json.Obj ((_ :: _) as prunes)) ->
        Buffer.add_string b "  prunes by lint code: ";
        Buffer.add_string b
          (String.concat ", "
             (List.map
                (fun (code, n) -> Printf.sprintf "%s x%d" code (int_of n))
                prunes));
        Buffer.add_char b '\n'
      | _ -> ());
      (match Json.member "static_prunes_by_code" r with
      | Some (Json.Obj ((_ :: _) as prunes)) ->
        Buffer.add_string b "  static races pruned: ";
        Buffer.add_string b
          (String.concat ", "
             (List.map
                (fun (code, n) -> Printf.sprintf "%s x%d" code (int_of n))
                prunes));
        Buffer.add_char b '\n'
      | _ -> ());
      (match Option.bind (Json.member "prerank" r) Json.to_list_opt with
      | Some ((_ :: _) as ps) ->
        let sum k = List.fold_left (fun a p -> a +. num_or k p 0.0) 0.0 ps in
        let stops =
          List.filter_map
            (fun p ->
              match Json.member "stopped_at" p with
              | Some (Json.Obj _ as at) -> Some at
              | _ -> None)
            ps
        in
        Printf.bprintf b
          "  prerank: model kept %g of %g candidate(s) for measurement (keep \
           %g%%), measured %g; the error bound (floor %g) stopped %d of %d \
           phase(s)%s\n"
          (sum "kept") (sum "candidates")
          (num_or "keep_pct" (List.hd ps) 0.0)
          (sum "measured")
          (num_or "floor" (List.hd ps) 0.0)
          (List.length stops) (List.length ps)
          (match stops with
           | at :: _ ->
             Printf.sprintf ", first at %s (score %s, k-th best %s)"
               (str_or "plan" at "?") (g (num_or "score" at 0.0))
               (g (num_or "kth_best" at 0.0))
           | [] -> "")
      | _ -> ());
      let ranked =
        match Option.bind (Json.member "ranked" r) Json.to_list_opt with
        | Some l -> l
        | None -> []
      in
      Printf.bprintf b "  candidates (%d, ranked):\n" (List.length ranked);
      List.iteri
        (fun j c ->
          let status = str_or "status" c "?" in
          let plan = str_or "plan" c "?" in
          let cache =
            match str "cache" c with Some s -> " [" ^ s ^ "]" | None -> ""
          in
          match status with
          | "won" | "lost" ->
            Printf.bprintf b "    %2d. %-4s %8s TF/s  %+6.1f%%  %s%s\n" (j + 1)
              status
              (g (num_or "tflops" c 0.0))
              (-.num_or "margin_pct" c 0.0)
              plan cache
          | "lint-pruned" ->
            Printf.bprintf b "    %2d. pruned %s  %s\n" (j + 1)
              (str_or "lint_code" c "?") plan
          | "static-pruned" ->
            Printf.bprintf b "    %2d. static race %s  %s\n" (j + 1)
              (str_or "lint_code" c "?") plan
          | "prerank-pruned" ->
            Printf.bprintf b "    %2d. prerank-pruned (predicted %s s)  %s\n"
              (j + 1)
              (g (num_or "predicted_time_s" c 0.0))
              plan
          | _ -> Printf.bprintf b "    %2d. %s  %s%s\n" (j + 1) status plan cache)
        ranked;
      match Json.member "traffic" r with
      | Some (Json.Obj _ as t) ->
        Printf.bprintf b "  winner traffic: %s useful / %s total flops"
          (g (num_or "useful_flops" t 0.0))
          (g (num_or "total_flops" t 0.0));
        (match Json.member "classes" t with
        | Some (Json.Obj classes) ->
          List.iter
            (fun (name, c) ->
              Printf.bprintf b "; %s %s B (oi %s vs knee %s: %s)" name
                (g (num_or "bytes" c 0.0))
                (g (num_or "oi" c 0.0))
                (g (num_or "knee" c 0.0))
                (str_or "bound" c "?"))
            classes
        | _ -> ());
        Printf.bprintf b "; spill %s B; bottleneck %s\n"
          (g (num_or "spill_bytes" t 0.0))
          (str_or "bottleneck" t "?");
        (match (num "predicted_time_s" t, num "time_s" t) with
        | Some p, Some m ->
          Printf.bprintf b
            "  winner prediction: %s s predicted vs %s s measured (%+.1f%% \
             model error)\n"
            (g p) (g m)
            (num_or "prediction_error_pct" t 0.0)
        | _ -> ())
      | _ -> ())
    runs;
  (match section "deep" with
  | Json.Obj _ as d ->
    let versions =
      match Option.bind (Json.member "versions" d) Json.to_list_opt with
      | Some l -> l
      | None -> []
    in
    Printf.bprintf b "\ndeep: %d version(s) explored; cusp %s; tipping point %s\n"
      (List.length versions)
      (g (num_or "cusp" d 0.0))
      (match Json.member "tipping_point" d with
      | Some (Json.Int t) -> Printf.sprintf "T=%d" t
      | Some (Json.Float t) -> Printf.sprintf "T=%g" t
      | _ -> "none");
    List.iter
      (fun v ->
        Printf.bprintf b "  tile %s: %s%s\n"
          (g (num_or "time_tile" v 0.0))
          (str_or "decision" v "?")
          (match str "reason" v with Some r -> " (" ^ r ^ ")" | None -> ""))
      versions;
    List.iter
      (fun s ->
        Printf.bprintf b "  schedule for T=%s: predicted %s s\n"
          (g (num_or "iterations" s 0.0))
          (g (num_or "predicted_time_s" s 0.0)))
      (match Option.bind (Json.member "schedules" d) Json.to_list_opt with
      | Some l -> l
      | None -> [])
  | _ -> ());
  (match section "fuzz" with
  | Json.Obj _ as f ->
    Printf.bprintf b
      "\nfuzz: %g case(s) — %g ok, %g finding(s); %g trial(s) (%g skipped), \
       %g plan(s) checked\n"
      (num_or "cases" f 0.0) (num_or "ok" f 0.0) (num_or "findings" f 0.0)
      (num_or "trials" f 0.0)
      (num_or "trials_skipped" f 0.0)
      (num_or "plans_checked" f 0.0)
  | _ -> ());
  (match section "exec" with
  | Json.Obj _ as e ->
    Printf.bprintf b "\nexec: %g launch(es)\n" (num_or "launches" e 0.0);
    List.iter
      (fun k ->
        let wavefront = num_or "wavefront_points" k 0.0 in
        let guarded = num_or "guarded_points" k 0.0 in
        let eliminated = num_or "eliminated_points" k 0.0 in
        Printf.bprintf b
          "  %s/%s: %g launch(es) (%g split), %s interior points%s%s%s \
           (%.1f%% unguarded)\n"
          (str_or "executor" k "?") (str_or "kernel" k "?")
          (num_or "launches" k 0.0)
          (num_or "split_launches" k 0.0)
          (g (num_or "interior_points" k 0.0))
          (if wavefront > 0.0 then Printf.sprintf " / %s wavefront" (g wavefront)
           else "")
          (if guarded > 0.0 then Printf.sprintf " / %s guarded" (g guarded) else "")
          (if eliminated > 0.0 then
             Printf.sprintf " / %s eliminated" (g eliminated)
           else "")
          (100.0 *. num_or "interior_fraction" k 0.0))
      (match Option.bind (Json.member "kernels" e) Json.to_list_opt with
      | Some l -> l
      | None -> [])
  | _ -> ());
  Buffer.contents b
