(* Metrics registry.  Handles are mutable records registered in a global
   table keyed by (name, sorted labels); hot paths register once and pay
   one mutex-guarded float store per update.  [reset] zeroes values but
   keeps the registrations, so module-level handles never dangle.

   A single global mutex guards both the registry and every value
   mutation: pool workers update counters concurrently, and unsynchronized
   read-modify-write stores would silently lose increments. *)

let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  match f () with
  | v ->
    Mutex.unlock lock;
    v
  | exception e ->
    Mutex.unlock lock;
    raise e

type counter = { mutable c_value : float }
type gauge = { mutable g_value : float }

type histogram = {
  bounds : float array;  (** upper bounds, ascending; +Inf implicit *)
  counts : int array;  (** length = Array.length bounds + 1 *)
  mutable h_sum : float;
  mutable h_count : int;
}

type entry =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

type key = { name : string; labels : (string * string) list }

let registry : (key, entry) Hashtbl.t = Hashtbl.create 64

let key name labels =
  { name; labels = List.sort compare labels }

let register k make =
  locked @@ fun () ->
  match Hashtbl.find_opt registry k with
  | Some e -> e
  | None ->
    let e = make () in
    Hashtbl.replace registry k e;
    e

let counter ?(labels = []) name =
  match register (key name labels) (fun () -> Counter { c_value = 0.0 }) with
  | Counter c -> c
  | Gauge _ | Histogram _ ->
    invalid_arg (Printf.sprintf "Metrics.counter: %s already registered as another type" name)

let incr ?(by = 1.0) (c : counter) = locked (fun () -> c.c_value <- c.c_value +. by)
let counter_value (c : counter) = locked (fun () -> c.c_value)

let gauge ?(labels = []) name =
  match register (key name labels) (fun () -> Gauge { g_value = 0.0 }) with
  | Gauge g -> g
  | Counter _ | Histogram _ ->
    invalid_arg (Printf.sprintf "Metrics.gauge: %s already registered as another type" name)

let set (g : gauge) v = locked (fun () -> g.g_value <- v)

let default_buckets =
  [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 1e-1; 1.0; 10.0; 100.0; 1000.0 |]

let histogram ?(buckets = default_buckets) ?(labels = []) name =
  let make () =
    let bounds = Array.copy buckets in
    Array.sort compare bounds;
    Histogram
      { bounds; counts = Array.make (Array.length bounds + 1) 0; h_sum = 0.0; h_count = 0 }
  in
  match register (key name labels) make with
  | Histogram h -> h
  | Counter _ | Gauge _ ->
    invalid_arg (Printf.sprintf "Metrics.histogram: %s already registered as another type" name)

let observe (h : histogram) v =
  (* First bucket whose upper bound admits [v]; the trailing slot is +Inf. *)
  let n = Array.length h.bounds in
  let rec find i = if i >= n || v <= h.bounds.(i) then i else find (i + 1) in
  let i = find 0 in
  locked @@ fun () ->
  h.counts.(i) <- h.counts.(i) + 1;
  h.h_sum <- h.h_sum +. v;
  h.h_count <- h.h_count + 1

(* Called by [snapshot], which holds the lock. *)
let buckets_unlocked (h : histogram) =
  let n = Array.length h.bounds in
  List.init (n + 1) (fun i ->
      ((if i < n then h.bounds.(i) else infinity), h.counts.(i)))

(* Called by [snapshot], which holds the lock.  Linear interpolation within
   the bucket holding the target rank; the +Inf bucket clamps to the
   highest finite bound (there is nothing to interpolate toward). *)
let quantile_unlocked (h : histogram) q =
  let n = Array.length h.bounds in
  if h.h_count = 0 || n = 0 then None
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let target = q *. float_of_int h.h_count in
    let rec go i cum =
      if i >= n then Some h.bounds.(n - 1)
      else
        let c = h.counts.(i) in
        let cum' = cum +. float_of_int c in
        if cum' >= target && c > 0 then begin
          let lo = if i = 0 then Float.min 0.0 h.bounds.(0) else h.bounds.(i - 1) in
          let hi = h.bounds.(i) in
          Some (lo +. ((hi -. lo) *. (target -. cum) /. float_of_int c))
        end
        else go (i + 1) cum'
    in
    go 0 0.0
  end

(* ------------------------------------------------------------------ *)
(* Snapshot                                                            *)
(* ------------------------------------------------------------------ *)

let labels_json labels = Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) labels)

let snapshot () =
  locked @@ fun () ->
  let entries = Hashtbl.fold (fun k e acc -> (k, e) :: acc) registry [] in
  let entries = List.sort (fun (a, _) (b, _) -> compare a b) entries in
  let counters, gauges, histograms =
    List.fold_left
      (fun (cs, gs, hs) (k, e) ->
        let base = [ ("name", Json.Str k.name); ("labels", labels_json k.labels) ] in
        match e with
        | Counter c ->
          (Json.Obj (base @ [ ("value", Json.Float c.c_value) ]) :: cs, gs, hs)
        | Gauge g ->
          (cs, Json.Obj (base @ [ ("value", Json.Float g.g_value) ]) :: gs, hs)
        | Histogram h ->
          let buckets =
            List.map
              (fun (le, count) ->
                Json.Obj
                  [ ("le", if le = infinity then Json.Str "+Inf" else Json.Float le);
                    ("count", Json.Int count) ])
              (buckets_unlocked h)
          in
          let quantile q =
            match quantile_unlocked h q with
            | Some v -> Json.Float v
            | None -> Json.Null
          in
          ( cs, gs,
            Json.Obj
              (base
              @ [ ("buckets", Json.List buckets); ("sum", Json.Float h.h_sum);
                  ("count", Json.Int h.h_count); ("p50", quantile 0.5);
                  ("p99", quantile 0.99) ])
            :: hs ))
      ([], [], []) entries
  in
  Json.Obj
    [ ("counters", Json.List (List.rev counters));
      ("gauges", Json.List (List.rev gauges));
      ("histograms", Json.List (List.rev histograms)) ]

