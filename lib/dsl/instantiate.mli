(** Instantiation: binding a stencil definition to its call-site actuals
    produces a concrete [kernel] — the unit all later phases (analysis,
    lowering, execution, tuning) operate on. *)

exception Instantiation_error of string

(** A stencil call bound to concrete arrays with resolved extents. *)
type kernel = {
  kname : string;
  body : Ast.stmt list;  (** statements over concrete names *)
  iters : string list;  (** iterators, outermost (slowest) first *)
  domain : int array;  (** iteration-space extents, one per iterator *)
  arrays : (string * int array) list;  (** concrete arrays with extents *)
  scalars : string list;  (** runtime scalar arguments *)
  assign : (string * Ast.placement) list;  (** user resource requests *)
  pragma : Ast.pragma;
}

(** Resolved extents of a declared array, if it is an array. *)
val array_dims : Ast.program -> string -> int array option

(** Arrays written by a statement list. *)
val outputs_of_body : Ast.stmt list -> string list

(** One step of the host schedule after instantiation. *)
type sched_item =
  | Launch of kernel
  | Exchange of string * string  (** ping-pong buffer swap *)
  | Repeat of int * sched_item list  (** time loop *)

(** Instantiate the whole host portion of a program. *)
val schedule : Ast.program -> sched_item list

(** Distinct kernels of a schedule, by name, in first-launch order
    (time loops walked once). *)
val kernels : sched_item list -> kernel list

(** Total kernel launches a schedule performs (time loops unrolled). *)
val launch_count : sched_item list -> int

(**/**)

val read_arrays_of_body : Ast.stmt list -> string list
