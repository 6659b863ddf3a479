(** Axis-aligned iteration-space boxes and interior loop sweeps.

    A statement's clipped region holds one guaranteed-in-bounds
    {e interior} box, swept row-wise with zero per-point checks; the
    rest of the region fails the statement's guard and is skipped — the
    host-side analogue of the guard elision ARTEMIS's generated CUDA
    performs on tile interiors (paper, Section III). *)

(** Inclusive [(lo, hi)] interval per dimension; empty when any
    [hi < lo] — the same convention as [Traffic.box]. *)
type box = (int * int) array

val volume : box -> int
val is_empty : box -> bool

(** The whole iteration space of [dims]. *)
val of_dims : int array -> box

(** Visit every point in lexicographic order.  The point array is a
    reused buffer ([point] when given) — valid only during the call. *)
val iter_points : ?point:int array -> box -> (int array -> unit) -> unit

(** Visit every innermost-dimension row in lexicographic order:
    [f point n] receives the row's start point (innermost coordinate at
    the row's low bound; a reused buffer) and the row length [n]. *)
val iter_rows : ?point:int array -> box -> (int array -> int -> unit) -> unit

(** One scope's point counts per execution class, as accumulated by
    {!with_tally}: split interior rows, wavefront flat rows,
    whole-region guarded fallbacks, and skipped guard-failing points. *)
type tally = {
  mutable t_interior : float;
  mutable t_wavefront : float;
  mutable t_guarded : float;
  mutable t_eliminated : float;
      (** region points outside the in-bounds box, skipped *)
}

(** [with_tally f] runs [f] with a fresh per-domain tally installed and
    returns its result paired with the points the sweeps below [f]
    charged.  Scoped to the calling domain, so concurrent launches on
    pool workers don't bleed into each other (unlike diffing the global
    counters); nested scopes shadow — the inner scope's points are not
    added to the outer one. *)
val with_tally : (unit -> 'a) -> 'a * tally

(** Charge [n] points to [exec.wavefront_points] (flat rows run inside
    a wavefront) / [exec.eliminated_points] (region points skipped
    outside the in-bounds box) on the current domain's tally scope.
    Exposed for the {!Wavefront} driver, which accounts its points
    centrally on the calling domain so parallel bands stay
    byte-identical to the serial sweep. *)
val charge_wavefront : float -> unit

val charge_eliminated : float -> unit

(** Guarded fallback sweep over a whole region (no interior carved out),
    charged to the [exec.guarded_points] counter — the dependent-stencil
    fallback path, reported distinctly from interior rows. *)
val sweep_guarded : ?point:int array -> region:box -> (int array -> unit) -> unit

(** Sweep the [interior] rows of [region] with [row] (the unguarded fast
    path, charged to [exec.interior_points]) and skip the rest of
    [region], charged to [exec.eliminated_points].  [interior] must be
    the statement's in-bounds sub-box of [region]: every point outside
    it fails the guard, so skipping it changes no output. *)
val sweep :
  ?point:int array -> region:box -> interior:box -> (int array -> int -> unit) -> unit
