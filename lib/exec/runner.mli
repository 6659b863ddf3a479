(** End-to-end runner: executes a configured schedule — kernel launches,
    buffer swaps, time loops — analytically (timing + counters at full
    size) or with data (values + counters at test sizes). *)

(** A schedule whose kernels carry concrete plans. *)
type step =
  | Run_plan of Artemis_ir.Plan.t
  | Swap of string * string
  | Loop of int * step list

type outcome = {
  counters : Artemis_gpu.Counters.t;
  time_s : float;
  tflops : float;
  launches : int;
}

(** Attach one plan per kernel, chosen by [plan_of]. *)
val configure :
  plan_of:(Artemis_dsl.Instantiate.kernel -> Artemis_ir.Plan.t) ->
  Artemis_dsl.Instantiate.sched_item list -> step list

(** Rewrite ping-pong time loops [Loop (n, [Run_plan p; Swap (a, b)])]
    (with [n >= degree]) into degree-[degree] blocked launches plus a
    degree-1 remainder loop.  Exact for any body: the blocked launch is
    the composition [(launch; swap)^(degree-1); launch], final exchange
    hoisted into the loop's swap.  Other steps pass through. *)
val temporal_rewrite :
  ?halo:Artemis_ir.Plan.halo_policy ->
  ?tbuf:Artemis_ir.Plan.tbuffer ->
  degree:int -> step list -> step list

(** Analytic execution: per-launch counters and times summed. *)
val measure_schedule : step list -> outcome

(** Data execution over a store (swaps rebind grids); returns total
    counters and the launch count.  [schedule] (default
    {!Eval.default_schedule}) picks how statements sweep. *)
val run_schedule :
  ?schedule:Eval.schedule -> step list -> Reference.store -> scalars:(string * float) list ->
  Artemis_gpu.Counters.t * int
