(* Bench meta stamp + regression diffing over the deterministic
   indicators of BENCH_*.json documents. *)

let git_rev () =
  match Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" with
  | exception _ -> "unknown"
  | ic ->
    let line = try String.trim (input_line ic) with End_of_file -> "" in
    (match Unix.close_process_in ic with
     | Unix.WEXITED 0 when line <> "" -> line
     | _ -> "unknown"
     | exception _ -> "unknown")

let meta ~jobs ~machine_model =
  Json.Obj
    [ ("schema_version", Json.Int 2); ("git_rev", Json.Str (git_rev ()));
      ("jobs", Json.Int jobs); ("machine_model", machine_model) ]

type status = Ok | Improved | Regression | Missing

type check = {
  path : string;
  old_value : Json.t;
  new_value : Json.t;
  delta_pct : float option;
  status : status;
}

type report = { threshold_pct : float; checks : check list; regressions : int }

(* An indicator is classified by its key name alone, so new benchmarks
   gate automatically without touching this module. *)
let higher_better key =
  key = "tflops" || key = "dram_traffic_reduction"
  || key = "measurements_saved_pct"
  || (String.length key >= 7 && String.sub key 0 7 = "speedup")

(* Walk OLD and NEW in lockstep, collecting indicator leaves.  The meta
   subtree (and legacy top-level schema_version) is provenance, not a
   measurement. *)
let rec collect path old_v new_v acc =
  match old_v with
  | Json.Obj fields ->
    List.fold_left
      (fun acc (key, ov) ->
        if path = [] && (key = "meta" || key = "schema_version") then acc
        else
          let nv = Option.bind new_v (Json.member key) in
          collect (key :: path) ov nv acc)
      acc fields
  | Json.List items ->
    List.fold_left
      (fun (acc, i) ov ->
        let nv =
          match new_v with
          | Some (Json.List nitems) -> List.nth_opt nitems i
          | _ -> None
        in
        (collect (string_of_int i :: path) ov nv acc, i + 1))
      (acc, 0) items
    |> fst
  | Json.Bool _ | Json.Int _ | Json.Float _ ->
    let key = match path with k :: _ -> k | [] -> "" in
    let is_num = match old_v with Json.Bool _ -> false | _ -> true in
    if (is_num && higher_better key) || not is_num then
      (String.concat "." (List.rev path), old_v, new_v) :: acc
    else acc
  | Json.Null | Json.Str _ -> acc

let number = function
  | Json.Int i -> Some (float_of_int i)
  | Json.Float f -> Some f
  | _ -> None

let judge ~threshold_pct (path, old_value, new_v) =
  match new_v with
  | None ->
    { path; old_value; new_value = Json.Null; delta_pct = None; status = Missing }
  | Some new_value -> (
    match (old_value, new_value) with
    | Json.Bool o, Json.Bool n ->
      let status = if o && not n then Regression else if n && not o then Improved else Ok in
      { path; old_value; new_value; delta_pct = None; status }
    | _ -> (
      match (number old_value, number new_value) with
      | Some o, Some n ->
        let delta_pct = if o = 0.0 then 0.0 else (n -. o) /. o *. 100.0 in
        let status =
          if delta_pct < -.threshold_pct then Regression
          else if delta_pct > threshold_pct then Improved
          else Ok
        in
        { path; old_value; new_value; delta_pct = Some delta_pct; status }
      | _ ->
        (* Type changed under an indicator key: treat like a disappearance. *)
        { path; old_value; new_value; delta_pct = None; status = Missing }))

let diff ?(threshold_pct = 10.0) ~old_doc ~new_doc () =
  (* Boolean indicators only occur inside objects, so only the Obj/List
     spine matters; a non-container root simply yields no checks. *)
  let raw = List.rev (collect [] old_doc (Some new_doc) []) in
  let checks = List.map (judge ~threshold_pct) raw in
  let regressions =
    List.length
      (List.filter (fun c -> c.status = Regression || c.status = Missing) checks)
  in
  { threshold_pct; checks; regressions }

let passed r = r.regressions = 0

let status_to_string = function
  | Ok -> "ok"
  | Improved -> "improved"
  | Regression -> "regression"
  | Missing -> "missing"

let to_json r =
  Json.Obj
    [ ("schema_version", Json.Int 1);
      ("threshold_pct", Json.Float r.threshold_pct);
      ("passed", Json.Bool (passed r));
      ("regressions", Json.Int r.regressions);
      ( "checks",
        Json.List
          (List.map
             (fun c ->
               Json.Obj
                 [ ("path", Json.Str c.path);
                   ("status", Json.Str (status_to_string c.status));
                   ("old", c.old_value); ("new", c.new_value);
                   ( "delta_pct",
                     match c.delta_pct with
                     | Some d -> Json.Float d
                     | None -> Json.Null ) ])
             r.checks) ) ]

let render r =
  let b = Buffer.create 512 in
  let value = function
    | Json.Bool v -> string_of_bool v
    | Json.Int v -> string_of_int v
    | Json.Float v -> Printf.sprintf "%.4g" v
    | Json.Null -> "-"
    | _ -> "?"
  in
  Printf.bprintf b "%-44s %10s %10s %9s  %s\n" "indicator" "old" "new" "delta"
    "status";
  List.iter
    (fun c ->
      let delta =
        match c.delta_pct with
        | Some d -> Printf.sprintf "%+.1f%%" d
        | None -> "-"
      in
      Printf.bprintf b "%-44s %10s %10s %9s  %s\n" c.path (value c.old_value)
        (value c.new_value) delta
        (status_to_string c.status))
    r.checks;
  Printf.bprintf b "%d indicator(s), threshold %.1f%%: %s\n"
    (List.length r.checks) r.threshold_pct
    (if passed r then "PASS"
     else Printf.sprintf "FAIL (%d regression(s))" r.regressions);
  Buffer.contents b
