(* Order statistics and the regression-bound rule shared by the
   benchmark's aggregation and its [compare] verdicts. *)

let sorted xs = List.sort Float.compare xs

(* Quantiles by the "exclusive" method of Python's
   [statistics.quantiles(xs, n=4)]: position p (n + 1), interpolated
   linearly and clamped to the sample, so a benchmark run and an external
   check of the same samples agree. *)
let quantile xs p =
  match sorted xs with
  | [] -> invalid_arg "Stats.quantile: empty sample"
  | [ x ] -> x
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let pos = p *. float_of_int (n + 1) in
    let j = int_of_float (Float.floor pos) in
    let frac = pos -. float_of_int j in
    if j < 1 then a.(0)
    else if j >= n then a.(n - 1)
    else a.(j - 1) +. (frac *. (a.(j) -. a.(j - 1)))

let median xs =
  match sorted xs with
  | [] -> invalid_arg "Stats.median: empty sample"
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let quartiles xs = (quantile xs 0.25, quantile xs 0.75)

(* [slowest_item per_pass]: each pass maps item names to seconds; the
   result is the item with the largest median across passes, with that
   median.  Items missing from some pass are judged on the passes that
   ran them. *)
let slowest_item (per_pass : (string * float) list list) =
  let tbl = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (List.iter (fun (name, s) ->
         match Hashtbl.find_opt tbl name with
         | Some l -> Hashtbl.replace tbl name (s :: l)
         | None ->
           order := name :: !order;
           Hashtbl.replace tbl name [ s ]))
    per_pass;
  List.fold_left
    (fun acc name ->
      let m = median (Hashtbl.find tbl name) in
      match acc with
      | Some (_, best) when best >= m -> acc
      | _ -> Some (name, m))
    None (List.rev !order)

let geomean = function
  | [] -> 0.0
  | xs ->
    exp (List.fold_left (fun a x -> a +. log x) 0.0 xs /. float_of_int (List.length xs))

(* Average ranks (ties share the mean of their positions), 1-based. *)
let ranks xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  let idx = Array.init n Fun.id in
  Array.stable_sort (fun i j -> Float.compare a.(i) a.(j)) idx;
  let r = Array.make n 0.0 in
  let i = ref 0 in
  while !i < n do
    let j = ref !i in
    while !j + 1 < n && a.(idx.(!j + 1)) = a.(idx.(!i)) do incr j done;
    let avg = float_of_int (!i + !j + 2) /. 2.0 in
    for k = !i to !j do r.(idx.(k)) <- avg done;
    i := !j + 1
  done;
  Array.to_list r

(* Spearman rank correlation; 0 for fewer than two points or a constant
   side. *)
let spearman xs ys =
  let n = List.length xs in
  if n < 2 || n <> List.length ys then 0.0
  else begin
    let rx = Array.of_list (ranks xs) and ry = Array.of_list (ranks ys) in
    let mean a = Array.fold_left ( +. ) 0.0 a /. float_of_int n in
    let mx = mean rx and my = mean ry in
    let sxy = ref 0.0 and sxx = ref 0.0 and syy = ref 0.0 in
    for i = 0 to n - 1 do
      let dx = rx.(i) -. mx and dy = ry.(i) -. my in
      sxy := !sxy +. (dx *. dy);
      sxx := !sxx +. (dx *. dx);
      syy := !syy +. (dy *. dy)
    done;
    if !sxx = 0.0 || !syy = 0.0 then 0.0 else !sxy /. sqrt (!sxx *. !syy)
  end

(* The allowed worsening from a baseline value: the relative bound, or
   the absolute one where that is larger. *)
let allowance ~rel ~abs baseline = Float.max (rel *. Float.abs baseline) abs

type direction =
  | Lower
  | Higher

type verdict =
  | Better
  | Within
  | Worse
  | Unresolved

let verdict_to_string = function
  | Better -> "better"
  | Within -> "within bound"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

(* Judge NEW against OLD.  A side whose q1-q3 spread is wider than the
   allowance cannot resolve a change of that size, so the verdict is
   unresolved rather than a guess. *)
let judge ~direction ~rel ~abs ~old_median ~old_iqr ~new_median ~new_iqr =
  let allow = allowance ~rel ~abs old_median in
  if old_iqr > allow || new_iqr > allow then Unresolved
  else begin
    let worsening =
      match direction with
      | Lower -> new_median -. old_median
      | Higher -> old_median -. new_median
    in
    if worsening > allow then Worse else if -.worsening > allow then Better else Within
  end
