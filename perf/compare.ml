(* [compare OLD.json NEW.json]: one verdict per (end-to-end metric,
   workload) under the bounds in BENCHMARK.json, plus exact equality of
   the deterministic counts.  Returns whether the gate passes. *)

module Json = Artemis.Json

let workloads doc =
  match Option.bind (Json.member "workloads" doc) Json.to_list_opt with
  | Some l ->
    List.filter_map
      (fun w -> Option.map (fun n -> (n, w)) (Option.bind (Json.member "name" w) Json.to_string_opt))
      l
  | None -> []

let field path doc =
  List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some doc) path
  |> fun j -> Option.bind j Json.to_float_opt

let run (spec : Spec.t) ~old_doc ~new_doc =
  let ok = ref true in
  let olds = workloads old_doc and news = workloads new_doc in
  Printf.printf "%-16s %-22s %14s %14s  %s\n" "workload" "metric" "old" "new" "verdict";
  List.iter
    (fun (name, o) ->
      match List.assoc_opt name news with
      | None ->
        ok := false;
        Printf.printf "%-16s missing from NEW\n" name
      | Some n ->
        List.iter
          (fun (m : Spec.metric) ->
            let get doc k = field [ "end_to_end"; m.name; k ] doc in
            match (get o "value", get n "value") with
            | Some ov, Some nv ->
              let iqr doc =
                match (get doc "q1", get doc "q3") with
                | Some q1, Some q3 -> q3 -. q1
                | _ -> 0.0
              in
              let abs = if m.name = "setup_s" then Spec.setup_abs_bound_s else 0.0 in
              let v =
                Stats.judge ~direction:m.better ~rel:m.bound ~abs ~old_median:ov
                  ~old_iqr:(iqr o) ~new_median:nv ~new_iqr:(iqr n)
              in
              let v =
                if Spec.deterministic m.name && ov <> nv then begin
                  ok := false;
                  "count differs"
                end
                else Stats.verdict_to_string v
              in
              if v = "worse" then ok := false;
              Printf.printf "%-16s %-22s %14.6g %14.6g  %s\n" name m.name ov nv v
            | _ ->
              ok := false;
              Printf.printf "%-16s %-22s missing\n" name m.name)
          spec.end_to_end;
        (match (field [ "failed_frac" ] o, field [ "failed_frac" ] n) with
         | Some ov, Some nv ->
           let v = if nv > ov then "worse" else "within bound" in
           if nv > ov then ok := false;
           Printf.printf "%-16s %-22s %14.6g %14.6g  %s\n" name "failed_frac" ov nv v
         | _ -> ());
        List.iter
          (fun (l : Spec.layer_metric) ->
            let lname = l.lname in
            if Spec.deterministic lname then
              match (field [ "layers"; lname; "value" ] o, field [ "layers"; lname; "value" ] n) with
              | Some ov, Some nv when ov <> nv ->
                ok := false;
                Printf.printf "%-16s %-22s %14.6g %14.6g  count differs\n" name lname ov nv
              | _ -> ())
          Spec.layers)
    olds;
  Printf.printf "%s\n" (if !ok then "PASS" else "FAIL");
  !ok
