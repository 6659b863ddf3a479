(* Axis-aligned iteration-space boxes and interior/halo loop splitting.

   The executors sweep each statement over a clipped region of the
   iteration domain.  Evaluating the statement's guard (and the write's
   bounds check) at every point is pure waste on the bulk of the region:
   the set of points where every access is in bounds is itself a box, so
   the region decomposes into one guaranteed-in-bounds *interior* box and
   at most [2 * rank] boundary *shells* that keep the guarded per-point
   path — the host-side analogue of the guard elision ARTEMIS's generated
   CUDA performs on tile interiors (paper, Section III).

   All boxes are inclusive [(lo, hi)] intervals per dimension, empty when
   any [hi < lo] — the same convention as [Traffic.box]. *)

module Metrics = Artemis_obs.Metrics

type box = (int * int) array

let volume (b : box) =
  Array.fold_left (fun acc (lo, hi) -> if hi < lo then 0 else acc * (hi - lo + 1)) 1 b

let is_empty b = volume b = 0

(** The whole iteration space of [dims]. *)
let of_dims (dims : int array) : box = Array.map (fun n -> (0, n - 1)) dims

(* Onion decomposition of [region] minus [interior]: shell [2d] takes the
   slab below the interior along dimension [d] and shell [2d+1] the slab
   above, with dimensions before [d] pinned to the interior range and
   dimensions after [d] spanning the full region.  Any region point lies
   in exactly one piece: walk dimensions outermost-in and stop at the
   first one where the point leaves the interior range. *)
let split ~(region : box) ~(interior : box) : box list =
  let r = Array.length region in
  if is_empty interior then if is_empty region then [] else [ region ]
  else begin
    let shells = ref [] in
    for d = r - 1 downto 0 do
      let piece range_d =
        Array.init r (fun d' ->
            if d' < d then interior.(d')
            else if d' > d then region.(d')
            else range_d)
      in
      let rlo, rhi = region.(d) and ilo, ihi = interior.(d) in
      let high = piece (ihi + 1, rhi) in
      if not (is_empty high) then shells := high :: !shells;
      let low = piece (rlo, ilo - 1) in
      if not (is_empty low) then shells := low :: !shells
    done;
    !shells
  end

(** Visit every point of [b] in lexicographic order.  The point array is
    a reused buffer ([point] when given) — valid only during the call. *)
let iter_points ?point (b : box) f =
  if not (is_empty b) then begin
    let r = Array.length b in
    let p = match point with Some p -> p | None -> Array.make r 0 in
    let rec go d =
      if d = r then f p
      else begin
        let lo, hi = b.(d) in
        for c = lo to hi do
          p.(d) <- c;
          go (d + 1)
        done
      end
    in
    go 0
  end

(** Visit every innermost-dimension row of [b] in lexicographic order:
    [f point n] receives the row's start point (innermost coordinate at
    the row's low bound; a reused buffer) and its length [n]. *)
let iter_rows ?point (b : box) f =
  if not (is_empty b) then begin
    let r = Array.length b in
    let p = match point with Some p -> p | None -> Array.make r 0 in
    let lo, hi = b.(r - 1) in
    let n = hi - lo + 1 in
    let rec go d =
      if d = r - 1 then begin
        p.(d) <- lo;
        f p n
      end
      else begin
        let dlo, dhi = b.(d) in
        for c = dlo to dhi do
          p.(d) <- c;
          go (d + 1)
        done
      end
    in
    go 0
  end

(* ------------------------------------------------------------------ *)
(* Split sweep driver                                                  *)
(* ------------------------------------------------------------------ *)

let m_interior = Metrics.counter "exec.interior_points"
let m_halo = Metrics.counter "exec.halo_points"
let m_wavefront = Metrics.counter "exec.wavefront_points"
let m_guarded = Metrics.counter "exec.guarded_points"
let m_eliminated = Metrics.counter "exec.eliminated_points"

type tally = {
  mutable t_interior : float;
  mutable t_halo : float;
  mutable t_wavefront : float;
  mutable t_guarded : float;
  mutable t_eliminated : float;
}

(* Per-domain scoped tally: the global counters aggregate every launch
   on every domain, so a caller wanting one launch's split (the journal's
   exec.split events) can't diff them under parallel fuzzing.  The DLS
   slot only sees sweeps from its own domain — exactly the launch the
   wrapper is running. *)
let tally_slot : tally option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let charge counter sel n =
  Metrics.incr ~by:n counter;
  match !(Domain.DLS.get tally_slot) with
  | Some t -> sel t n
  | None -> ()

let charge_interior =
  charge m_interior (fun t n -> t.t_interior <- t.t_interior +. n)

let charge_halo = charge m_halo (fun t n -> t.t_halo <- t.t_halo +. n)

let charge_wavefront =
  charge m_wavefront (fun t n -> t.t_wavefront <- t.t_wavefront +. n)

let charge_guarded =
  charge m_guarded (fun t n -> t.t_guarded <- t.t_guarded +. n)

let charge_eliminated =
  charge m_eliminated (fun t n -> t.t_eliminated <- t.t_eliminated +. n)

let with_tally f =
  let slot = Domain.DLS.get tally_slot in
  let saved = !slot in
  let t =
    {
      t_interior = 0.0;
      t_halo = 0.0;
      t_wavefront = 0.0;
      t_guarded = 0.0;
      t_eliminated = 0.0;
    }
  in
  slot := Some t;
  Fun.protect
    ~finally:(fun () -> slot := saved)
    (fun () ->
      let v = f () in
      (v, t))

(** Guarded fallback sweep over a whole region (no interior carved out),
    charged to [exec.guarded_points] so [artemisc explain] reports the
    fallback path distinctly from boundary shells. *)
let sweep_guarded ?point ~(region : box) guarded =
  iter_points ?point region guarded;
  charge_guarded (float_of_int (volume region))

(** Sweep [region] as [interior] rows (the unguarded fast path) plus
    boundary shells on the guarded per-point path.  [interior] must be a
    sub-box of [region] — callers obtain it by intersecting the region
    with the statement's in-bounds box.  Interior and halo point counts
    feed the [exec.interior_points] / [exec.halo_points] counters.

    [dead_shells] asserts the caller has proven (statically) that every
    shell point is a no-op — some access is out of bounds there, so the
    guarded body would fall through without writing.  The shells are then
    skipped entirely and their volume charged to
    [exec.eliminated_points]; output is bit-identical by construction.
    When [interior] is empty the proof covers the whole region. *)
let sweep ?point ?(dead_shells = false) ~(region : box) ~(interior : box)
    ~guarded ~row () =
  if is_empty interior then
    if dead_shells then charge_eliminated (float_of_int (volume region))
    else sweep_guarded ?point ~region guarded
  else begin
    List.iter
      (fun shell ->
        if dead_shells then charge_eliminated (float_of_int (volume shell))
        else begin
          iter_points ?point shell guarded;
          charge_halo (float_of_int (volume shell))
        end)
      (split ~region ~interior);
    iter_rows ?point interior row;
    charge_interior (float_of_int (volume interior))
  end
