(* Dense row-major multi-dimensional double grids: the simulated global
   memory.  Index 0 is the slowest-varying dimension, matching the DSL's
   declaration order. *)

type t = {
  dims : int array;
  strides : int array;
  data : float array;
}

let strides_of dims =
  let r = Array.length dims in
  let s = Array.make r 1 in
  for d = r - 2 downto 0 do
    s.(d) <- s.(d + 1) * dims.(d + 1)
  done;
  s

let create dims =
  let n = Array.fold_left ( * ) 1 dims in
  if n <= 0 then invalid_arg "Grid.create: empty dims";
  { dims; strides = strides_of dims; data = Array.make n 0.0 }

let size g = Array.length g.data
let rank g = Array.length g.dims

let copy g = { g with data = Array.copy g.data }

let in_bounds g coords =
  let ok = ref true in
  Array.iteri (fun d c -> if c < 0 || c >= g.dims.(d) then ok := false) coords;
  !ok

let linear g coords =
  let idx = ref 0 in
  Array.iteri (fun d c -> idx := !idx + (c * g.strides.(d))) coords;
  !idx

let get g coords = g.data.(linear g coords)
let set g coords v = g.data.(linear g coords) <- v

(** Initialize with a deterministic smooth-plus-noise pattern so stencil
    outputs are sensitive to every input point (tests rely on this).  The
    smooth part is a sum of one [sin] term per dimension, so each
    dimension gets one table and the partial sums accumulate down the
    loop nest, in the same dimension order as a per-point sum. *)
let init_pattern ?(seed = 1) g =
  let r = rank g in
  let tables =
    Array.init r (fun d ->
        Array.init g.dims.(d) (fun c ->
            sin (float_of_int ((d + seed) * (c + 1)) *. 0.17)))
  in
  (* A small multiplicative hash decorrelates neighbouring points. *)
  let[@inline] noise lin = float_of_int ((lin * 2654435761) land 0xFFFF) /. 65536.0 in
  (* [partial.(d)]: the smooth sum over the dimensions before [d]. *)
  let partial = Array.make r 0.0 in
  let rec go d lin =
    let table = tables.(d) and stride = g.strides.(d) in
    if d = r - 1 then begin
      let smooth = partial.(d) in
      for c = 0 to g.dims.(d) - 1 do
        let l = lin + (c * stride) in
        g.data.(l) <- smooth +. table.(c) +. noise l
      done
    end
    else
      for c = 0 to g.dims.(d) - 1 do
        partial.(d + 1) <- partial.(d) +. table.(c);
        go (d + 1) (lin + (c * stride))
      done
  in
  if r = 0 then g.data.(0) <- 0.0 +. noise 0 else go 0 0

let fill g v = Array.fill g.data 0 (Array.length g.data) v

(** Largest absolute difference between two same-shaped grids. *)
let max_abs_diff a b =
  if a.dims <> b.dims then invalid_arg "Grid.max_abs_diff: shape mismatch";
  let m = ref 0.0 in
  Array.iteri
    (fun i v ->
      let d = Float.abs (v -. b.data.(i)) in
      if d > !m then m := d)
    a.data;
  !m

(** Largest absolute difference restricted to points at distance >= margin
    from every face (the deep interior where overlapped tiling and fusion
    must agree with the reference exactly). *)
let max_abs_diff_interior ~margin a b =
  if a.dims <> b.dims then invalid_arg "Grid.max_abs_diff_interior: shape mismatch";
  let r = rank a in
  let coords = Array.make r 0 in
  let m = ref 0.0 in
  let rec go d =
    if d = r then begin
      let diff = Float.abs (get a coords -. get b coords) in
      if diff > !m then m := diff
    end
    else
      for c = margin to a.dims.(d) - 1 - margin do
        coords.(d) <- c;
        go (d + 1)
      done
  in
  if Array.for_all (fun e -> e > 2 * margin) a.dims then go 0;
  !m
