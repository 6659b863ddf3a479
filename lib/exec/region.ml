(* Axis-aligned iteration-space boxes and interior loop sweeps.

   The executors sweep each statement over a clipped region of the
   iteration domain.  Evaluating the statement's guard (and the write's
   bounds check) at every point is pure waste: the set of points where
   every access is in bounds is itself a box, the *interior*.  The
   executors sweep only that box, with no per-point check, and skip the
   rest of the region, where the guard fails and the statement would
   not write — the host-side analogue of the guard elision ARTEMIS's
   generated CUDA performs on tile interiors (paper, Section III).

   All boxes are inclusive [(lo, hi)] intervals per dimension, empty when
   any [hi < lo] — the same convention as [Traffic.box]. *)

module Metrics = Artemis_obs.Metrics

type box = (int * int) array

let volume (b : box) =
  Array.fold_left (fun acc (lo, hi) -> if hi < lo then 0 else acc * (hi - lo + 1)) 1 b

let is_empty b = volume b = 0

(** The whole iteration space of [dims]. *)
let of_dims (dims : int array) : box = Array.map (fun n -> (0, n - 1)) dims

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
(* Sweep drivers                                                       *)
(* ------------------------------------------------------------------ *)

let m_interior = Metrics.counter "exec.interior_points"
let m_wavefront = Metrics.counter "exec.wavefront_points"
let m_guarded = Metrics.counter "exec.guarded_points"
let m_eliminated = Metrics.counter "exec.eliminated_points"

type tally = {
  mutable t_interior : float;
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

let charge_wavefront =
  charge m_wavefront (fun t n -> t.t_wavefront <- t.t_wavefront +. n)

let charge_guarded =
  charge m_guarded (fun t n -> t.t_guarded <- t.t_guarded +. n)

let charge_eliminated =
  charge m_eliminated (fun t n -> t.t_eliminated <- t.t_eliminated +. n)

let with_tally f =
  let slot = Domain.DLS.get tally_slot in
  let saved = !slot in
  let t = { t_interior = 0.0; t_wavefront = 0.0; t_guarded = 0.0; t_eliminated = 0.0 } in
  slot := Some t;
  Fun.protect
    ~finally:(fun () -> slot := saved)
    (fun () ->
      let v = f () in
      (v, t))

(** Guarded fallback sweep over a whole region (no interior carved out),
    charged to [exec.guarded_points] so [artemisc explain] reports the
    fallback path distinctly from interior rows. *)
let sweep_guarded ?point ~(region : box) guarded =
  iter_points ?point region guarded;
  charge_guarded (float_of_int (volume region))

(** Sweep the [interior] rows of [region] (the unguarded fast path,
    charged to [exec.interior_points]) and skip the rest of [region],
    charged to [exec.eliminated_points].  [interior] must be the
    statement's in-bounds sub-box of [region]: every point outside it
    fails the guard, so skipping it leaves the output bit-identical. *)
let sweep ?point ~(region : box) ~(interior : box) row =
  let skipped = volume region - volume interior in
  if skipped > 0 then charge_eliminated (float_of_int skipped);
  if not (is_empty interior) then begin
    iter_rows ?point interior row;
    charge_interior (float_of_int (volume interior))
  end
