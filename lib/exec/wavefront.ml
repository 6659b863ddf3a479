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

(** One executor instance for the sweep: compiled closures own mutable
    coordinate/base buffers, so rows running concurrently must each use
    their own instance — the [sweeper] grows a pool of them on demand. *)
type exec = {
  we_guarded : int array -> unit;  (** guarded per-point body *)
  we_row : int array -> int -> unit;  (** unguarded flat row body *)
}

type sweeper = {
  sw_make : unit -> exec;
  mutable sw_insts : exec array;
}

let sweeper ~make_exec = { sw_make = make_exec; sw_insts = [||] }

let instances sw n =
  let have = Array.length sw.sw_insts in
  if have < n then
    sw.sw_insts <-
      Array.init n (fun i -> if i < have then sw.sw_insts.(i) else sw.sw_make ());
  sw.sw_insts

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

(* Run one row: guarded prefix, flat in-bounds middle, guarded suffix —
   strictly increasing innermost coordinate, the reference's own in-row
   order, so intra-row dependences behave identically. *)
let run_row ~(region : Region.box) ~(interior : Region.box) (ex : exec)
    (o : int array) =
  let rank = Array.length region in
  let m = rank - 1 in
  let point = Array.make rank 0 in
  Array.blit o 0 point 0 m;
  let jlo, jhi = region.(m) in
  let in_interior =
    let ok = ref (not (Region.is_empty interior)) in
    for d = 0 to m - 1 do
      let lo, hi = interior.(d) in
      if o.(d) < lo || o.(d) > hi then ok := false
    done;
    !ok
  in
  let flo, fhi =
    if in_interior then
      let ilo, ihi = interior.(m) in
      (max jlo ilo, min jhi ihi)
    else (jlo, jlo - 1)
  in
  if fhi < flo then
    for j = jlo to jhi do
      point.(m) <- j;
      ex.we_guarded point
    done
  else begin
    for j = jlo to flo - 1 do
      point.(m) <- j;
      ex.we_guarded point
    done;
    point.(m) <- flo;
    ex.we_row point (fhi - flo + 1);
    for j = fhi + 1 to jhi do
      point.(m) <- j;
      ex.we_guarded point
    done
  end

(* Flat points of one row — for charging the counters deterministically
   on the calling domain, independent of how rows are banded. *)
let flat_len ~(region : Region.box) ~(interior : Region.box) (o : int array) =
  let m = Array.length region - 1 in
  if Region.is_empty interior then 0
  else begin
    let ok = ref true in
    for d = 0 to m - 1 do
      let lo, hi = interior.(d) in
      if o.(d) < lo || o.(d) > hi then ok := false
    done;
    if not !ok then 0
    else begin
      let jlo, jhi = region.(m) in
      let ilo, ihi = interior.(m) in
      max 0 (min jhi ihi - max jlo ilo + 1)
    end
  end

(* Rows of one wavefront are mutually independent, so wide wavefronts
   fan out across the pool in contiguous bands (each band on its own
   executor instance); values are band-independent and the counters are
   charged here on the calling domain, so jobs=N stays byte-identical
   to jobs=1. *)
let min_parallel_rows = 4

let sweep_dense (sw : sweeper) ~(region : Region.box)
    ~(interior : Region.box) ~(vec : int array) =
  begin
    let flat_total = ref 0 in
    iter_wavefronts ~region ~vec (fun _w rows ->
        let nrows = Array.length rows in
        Array.iter (fun o -> flat_total := !flat_total + flat_len ~region ~interior o) rows;
        let par = Pool.parallelism () in
        if par > 1 && nrows >= min_parallel_rows then begin
          let bands = min par nrows in
          let execs = instances sw bands in
          let chunk = (nrows + bands - 1) / bands in
          ignore
            (Pool.map ~label:"exec.wavefront_band"
               (fun b ->
                 let ex = execs.(b) in
                 let lo = b * chunk and hi = min nrows ((b + 1) * chunk) in
                 for r = lo to hi - 1 do
                   run_row ~region ~interior ex rows.(r)
                 done)
               (List.init bands Fun.id))
        end
        else begin
          let ex = (instances sw 1).(0) in
          Array.iter (fun o -> run_row ~region ~interior ex o) rows
        end);
    let total = Region.volume region in
    Region.charge_wavefront (float_of_int !flat_total);
    Region.charge_halo (float_of_int (total - !flat_total))
  end

(** Sweep all rows of [region] wavefront by wavefront.  [elide] asserts
    a static proof that every point outside [interior] is a
    guard-failing no-op: the sweep then shrinks to the interior box
    (every row fully flat), charging the skipped points to
    [exec.eliminated_points] — bit-identical output, since wavefront
    numbering by [vec . outer] is translation-invariant and the executed
    points keep their relative order. *)
let sweep ?(elide = false) (sw : sweeper) ~(region : Region.box)
    ~(interior : Region.box) ~(vec : int array) =
  if elide then begin
    let skipped = Region.volume region - Region.volume interior in
    Region.charge_eliminated (float_of_int skipped);
    if not (Region.is_empty interior) then
      sweep_dense sw ~region:interior ~interior ~vec
  end
  else if not (Region.is_empty region) then sweep_dense sw ~region ~interior ~vec
