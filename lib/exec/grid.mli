(** Dense row-major multi-dimensional double grids — the simulated global
    memory.  Index 0 is the slowest-varying dimension, matching the DSL's
    declaration order. *)

type t = {
  dims : int array;
  strides : int array;
  data : float array;
}

(** Zero-filled grid. @raise Invalid_argument on empty dims. *)
val create : int array -> t

val copy : t -> t
val in_bounds : t -> int array -> bool
val get : t -> int array -> float
val set : t -> int array -> float -> unit

(** Fill with a deterministic smooth-plus-noise pattern so stencil
    outputs are sensitive to every input point (tests rely on this). *)
val init_pattern : ?seed:int -> t -> unit

(** Largest |a - b| over two same-shaped grids. *)
val max_abs_diff : t -> t -> float

(** Same, restricted to points at distance >= margin from every face —
    the deep interior where overlapped tiling and fusion must agree with
    the reference.  Zero when the margin leaves no interior. *)
val max_abs_diff_interior : margin:int -> t -> t -> float
