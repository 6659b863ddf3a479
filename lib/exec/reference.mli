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

(** [target[idx] = e] (or [+=] under [accum]) compiled once
    ({!Eval.compile_stmt}) and returned as its region sweep — the one
    statement dispatch of both executors and the streamed temporal
    traversal.  By class: [Sc_split] sweeps the region's in-bounds box
    ({!Eval.split_interior}) in flat rows ({!Region.sweep}),
    [Sc_wavefront] sweeps it through {!Wavefront.sweep} (one sweeper
    for every region swept), and [Sc_guarded] checks every point of the
    region ({!Region.sweep_guarded}).  The result owns its buffers and
    belongs to one sequential sweep at a time. *)
val compile_sweep :
  schedule:Eval.schedule -> Eval.binder -> target:Grid.t -> accum:bool ->
  Artemis_dsl.Ast.index list -> Artemis_dsl.Ast.expr -> Region.box -> unit

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
