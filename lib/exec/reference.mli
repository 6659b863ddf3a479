(** Reference sequential executor — the semantic ground truth every
    generated plan must match.

    Kernel-body semantics: each statement is a whole-domain sweep in
    order (the stencil-DAG reading of multi-statement bodies, Figure 3);
    temporaries materialize as full grids.  A statement executes at a
    point iff all its reads and its write are in bounds — the guard the
    generated CUDA emits — so boundary cells keep previous contents. *)

type store = (string, Grid.t) Hashtbl.t

(** @raise Invalid_argument on unbound names *)
val find_array : store -> string -> Grid.t

(** Execute one kernel; kernel arrays absent from the store (fused-kernel
    scratch intermediates) are materialized locally, zero-initialized.
    [schedule] (default [Eval.Rows]) picks how statements sweep; both
    schedules compute bit-identical grids. *)
val run_kernel :
  ?schedule:Eval.schedule -> store -> scalars:(string * float) list -> Artemis_dsl.Instantiate.kernel -> unit

(** Execute a whole instantiated schedule; swaps exchange grid bindings
    (the ping-pong idiom). *)
val run_schedule :
  ?schedule:Eval.schedule -> store -> scalars:(string * float) list ->
  Artemis_dsl.Instantiate.sched_item list -> unit

(** A store for a program: every declared array filled with the
    deterministic test pattern (per-array seeds). *)
val store_of_program : Artemis_dsl.Ast.program -> store

(** Deterministic scalar values keyed by declaration order. *)
val scalars_of_program : Artemis_dsl.Ast.program -> (string * float) list
