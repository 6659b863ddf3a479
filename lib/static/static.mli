(** Affine dataflow analysis over ARTEMIS stencil programs.

    The DSL restricts every array index to [iterator + shift] or a bare
    integer constant, so each access footprint is an axis-aligned box
    and the analysis below is {e exact} on well-formed programs: the
    in-bounds execution set of a statement is precisely the product of
    per-dimension intervals, dependence distances between affine access
    pairs are constants, and "unknown" is reserved for the shapes the
    executors themselves refuse to schedule (position-dependent
    self-dependences).

    The module is the single source of dependence facts: the
    executors, the traffic model, lint and fusion legality all take
    their self-dependence distances and wavefront hyperplanes from
    here, and the executors sweep each statement over its {!footprint}
    (the in-bounds box), skipping the guard-failing rest of the region.
    It is independent of [Artemis_exec]; the fuzz oracle checks every
    footprint against the executed guard point by point. *)

module A = Artemis_dsl.Ast
module I = Artemis_dsl.Instantiate

(* ------------------------------------------------------------------ *)
(* Boxes                                                               *)
(* ------------------------------------------------------------------ *)

type box = (int * int) array
(** Inclusive per-dimension bounds [(lo, hi)]; empty iff some [hi < lo]. *)

val box_volume : box -> int
val box_to_string : box -> string

val box_inter : box -> box -> box

val box_subtract : box -> box -> box list
(** [box_subtract a b] is a disjoint box cover of [a \ b]. *)

val subtract_all : box list -> box list -> box list
(** Pieces of the first cover not covered by the second. *)

(* ------------------------------------------------------------------ *)
(* Access specs and concrete footprints                                *)
(* ------------------------------------------------------------------ *)

type spec = (int * int) array
(** Per array dimension: [(iteration dim, shift)]; dim [-1] marks a
    constant index with the constant in the shift slot.  The same
    encoding the executors compile to. *)

val spec_of_index : iters:string list -> A.index list -> spec

val footprint : region:box -> accesses:(int array * spec) list -> box
(** Exact in-bounds execution set within [region]: the iteration points
    where every listed access (given as array extents paired with its
    spec) lands inside its array.  On this DSL that set is exactly a
    box; the result uses [region]'s coordinates. *)

val domain_footprints : I.kernel -> (string * A.index list * box) list
(** Per body statement, in order: the array or temporary it writes, its
    write index, and its {!footprint} over the whole domain (the write
    plus every array read; temporaries live on domain-shaped registers).
    What [artemisc analyze] prints per statement and what the fuzz
    oracle checks against the executed guard. *)

(* ------------------------------------------------------------------ *)
(* Dependence testing                                                  *)
(* ------------------------------------------------------------------ *)

type dep =
  | No_dep  (** no aliasing self-read, or provably disjoint reads only *)
  | Uniform of int array list
      (** constant nonzero distance vectors, read point minus write point *)
  | Unknown  (** position-dependent distance: sound "don't know" *)

val write_covers : rank:int -> spec -> bool
(** True when the write indexes every iteration dimension, so each
    iteration writes its own cell exactly once and "iteration [p] reads
    the cell iteration [p + delta] writes" is well-defined. *)

val distances : rank:int -> wspec:spec -> spec list -> int array list option
(** Nonzero distances of the given reads from a covering write, in read
    order; identity and provably disjoint reads drop out.  [None] when
    some read's distance is position-dependent. *)

val self_dependences : iters:string list -> A.stmt -> dep
(** Self-dependence classification of one statement, computed purely
    from the AST.  When the write does not cover every iteration
    dimension, identity reads are [No_dep] and anything else
    [Unknown]; otherwise the verdict is {!distances} over the reads of
    the written array. *)

val schedule_ok : rank:int -> vec:int array -> int array list -> bool
(** True when the hyperplane [vec] over the outer dimensions preserves
    every dependence: [sign (vec . d')] is the sign of the first nonzero
    component of [d'] for each outer component [d'].  Rows sharing a wavefront are then independent. *)

val hyperplane : rank:int -> int array list -> int array option
(** The wavefront hyperplane over the [rank - 1] outer dimensions: the
    first vector passing {!schedule_ok}, smallest component sum first
    (widest wavefronts); the all-zero vector when every dependence is
    intra-row (all rows in one wavefront).  A base-B vector orders any
    set of uniform distances, so [None] is kept for defensiveness
    only. *)

val band_safe : int array list -> bool
(** True when every distance vector is componentwise same-signed, so a
    tile-lexicographic traversal (the block executor's fan-out) agrees
    with the point-lexicographic reference. *)

(* ------------------------------------------------------------------ *)
(* Whole-kernel verdicts (A7xx back ends)                              *)
(* ------------------------------------------------------------------ *)

type oob = {
  oob_kernel : string;
  oob_stmt : int;  (** statement index in the kernel body *)
  oob_array : string;
  oob_dim : int;  (** offending array dimension *)
  oob_witness : int array;  (** iteration point exhibiting the violation *)
  oob_index : int;  (** resolved index value at the witness *)
  oob_extent : int;
}

val never_in_bounds : I.kernel -> oob list
(** Accesses whose in-bounds set is empty over the whole (non-empty)
    domain: the statement provably never executes that access.  Each
    carries a concrete witness point. *)

type uninit = {
  un_kernel : string;
  un_stmt : int;
  un_array : string;
  un_region : box;  (** an uncovered sub-box of the read region *)
}

val uninit_reads : A.program -> I.sched_item list -> uninit list
(** Region-level must-write dataflow across launches and time steps:
    reads of a device array whose read region is not covered by the
    union of copy-in and the must-written regions of earlier launches.
    Arrays written anywhere in the reading kernel itself are exempt
    (intra-kernel ordering is the syntactic linter's domain); time
    loops are unrolled twice, which reaches the ping-pong fixpoint. *)

(* ------------------------------------------------------------------ *)
(* Symbolic footprints                                                 *)
(* ------------------------------------------------------------------ *)

type affine = {
  a_base : int;
  a_terms : (string * int) list;  (** extent-parameter coefficients *)
}

type sym_bound = {
  sb_lo : int;  (** constant lower bound *)
  sb_hi : affine list;  (** upper bound: minimum over affine forms *)
}

val sym_bound_to_string : sym_bound -> string

type sym_stmt = {
  ss_stencil : string;
  ss_stmt : int;
  ss_write : string;
  ss_iters : string list;
  ss_bounds : sym_bound array;  (** per iteration dimension *)
}

val symbolic_footprints : A.program -> sym_stmt list
(** Per-statement execution footprints as affine functions of the
    declared extent parameters, one entry per distinct stencil
    application in the host program. *)
