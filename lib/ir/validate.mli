(** Plan validation against device and CUDA launch limits.  [validate]
    is the only producer of a [valid] plan; measurement, its cache and
    the block executor take only [valid] plans, so every simulated
    result is of a launchable kernel and nothing downstream re-checks. *)

type violation =
  | Too_many_threads of int
  | Bad_block_dim of int * int  (** dimension, extent *)
  | Shared_overflow of int * int  (** needed, available *)
  | Regs_overflow of int * int
  | Zero_occupancy of string  (** limiter description *)
  | Bad_stream_dim of int
  | Bad_unroll of int * int
  | Empty_tile of int
  | Bad_degree of int  (** temporal degree < 1, or > 1 without a pair *)

val violation_to_string : violation -> string

(** Short constant tag per violation kind, usable as a metric label. *)
val violation_tag : violation -> string

(** A plan that passed [validate]; coerce with [(v :> Plan.t)]. *)
type valid = private Plan.t

(** The gate: [Ok] the plan when launchable, else every violation. *)
val validate : Plan.t -> (valid, violation list) result

(** All limit violations; empty means launchable. *)
val violations : Plan.t -> violation list

val is_valid : Plan.t -> bool

(** ["invalid plan LABEL: v1; v2"], the message for a plan [validate]
    rejected with these violations. *)
val describe : Plan.t -> violation list -> string
