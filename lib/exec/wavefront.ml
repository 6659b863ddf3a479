(* Wavefront (hyperplane) sweep driver for uniform self-dependent
   statements — the Gauss-Seidel/SOR class the split executor would
   otherwise surrender to the guarded per-point path.

   Each innermost-dimension row is a macro-node.  The hyperplane [vec]
   over the outer dimensions comes from [Artemis_static.Static.hyperplane],
   which picks it so that ordering rows by wavefront number
   [vec . outer] preserves every dependence with a nonzero outer part.
   Rows sharing a wavefront are then mutually independent: they can run
   in parallel, and the unguarded flat row loop runs inside each of
   them.  Dependences inside a row are kept by running every row in
   increasing innermost order — exactly the reference's lexicographic
   semantics (a backward in-row read sees the freshly written value, a
   forward one the old value, bit for bit). *)

module Pool = Artemis_par.Pool

(* A flat row body ([Eval.stmt_exec.sx_row]): compiled closures own
   mutable coordinate/base buffers, so rows running concurrently must
   each use their own instance — the [sweeper] grows a pool of them on
   demand. *)
type sweeper = {
  sw_make : unit -> int array -> int -> unit;
  mutable sw_rows : (int array -> int -> unit) array;
}

let sweeper ~make_row = { sw_make = make_row; sw_rows = [||] }

let instances sw n =
  let have = Array.length sw.sw_rows in
  if have < n then
    sw.sw_rows <-
      Array.init n (fun i -> if i < have then sw.sw_rows.(i) else sw.sw_make ());
  sw.sw_rows

(** All innermost rows of [region] grouped into wavefronts by
    [vec . outer]: [f w rows] is called once per non-empty wavefront in
    increasing [w], with the rows (their outer coordinates) in
    lexicographic order.  [vec] components must be non-negative. *)
let iter_wavefronts ~(region : Region.box) ~(vec : int array) f =
  if not (Region.is_empty region) then begin
    let rank = Array.length region in
    let m = rank - 1 in
    let wmax =
      let s = ref 0 in
      Array.iteri (fun d v -> s := !s + (v * (snd region.(d) - fst region.(d)))) vec;
      !s
    in
    let buckets = Array.make (wmax + 1) [] in
    let outer = Array.init m (fun d -> region.(d)) in
    Region.iter_points outer (fun o ->
        let w = ref 0 in
        Array.iteri (fun d v -> w := !w + (v * (o.(d) - fst region.(d)))) vec;
        buckets.(!w) <- Array.copy o :: buckets.(!w));
    Array.iteri
      (fun w rows ->
        match rows with
        | [] -> ()
        | rows -> f w (Array.of_list (List.rev rows)))
      buckets
  end

(* Run one whole row of [box] at outer coordinates [o], in increasing
   innermost order — the reference's own in-row order, so intra-row
   dependences behave identically. *)
let run_row ~(box : Region.box) row (o : int array) =
  let m = Array.length box - 1 in
  let point = Array.make (m + 1) 0 in
  Array.blit o 0 point 0 m;
  let jlo, jhi = box.(m) in
  point.(m) <- jlo;
  row point (jhi - jlo + 1)

(* Rows of one wavefront are mutually independent, so wide wavefronts
   fan out across the pool in contiguous bands (each band on its own
   row instance); values are band-independent and the counters are
   charged here on the calling domain, so jobs=N stays byte-identical
   to jobs=1. *)
let min_parallel_rows = 4

(** Sweep the [interior] of [region] wavefront by wavefront and skip the
    rest of [region]: every point outside the in-bounds box fails the
    guard, so only whole flat rows run.  Wavefront numbering by
    [vec . outer] is translation-invariant, so the executed points keep
    their relative order and the output stays bit-identical. *)
let sweep (sw : sweeper) ~(region : Region.box) ~(interior : Region.box)
    ~(vec : int array) =
  let skipped = Region.volume region - Region.volume interior in
  if skipped > 0 then Region.charge_eliminated (float_of_int skipped);
  if not (Region.is_empty interior) then begin
    iter_wavefronts ~region:interior ~vec (fun _w rows ->
        let nrows = Array.length rows in
        let par = Pool.parallelism () in
        if par > 1 && nrows >= min_parallel_rows then begin
          let bands = min par nrows in
          let insts = instances sw bands in
          let chunk = (nrows + bands - 1) / bands in
          ignore
            (Pool.map ~label:"exec.wavefront_band"
               (fun b ->
                 let row = insts.(b) in
                 let lo = b * chunk and hi = min nrows ((b + 1) * chunk) in
                 for r = lo to hi - 1 do
                   run_row ~box:interior row rows.(r)
                 done)
               (List.init bands Fun.id))
        end
        else begin
          let row = (instances sw 1).(0) in
          Array.iter (run_row ~box:interior row) rows
        end);
    Region.charge_wavefront (float_of_int (Region.volume interior))
  end
