(* End-to-end runner: executes a configured schedule — the host-side
   sequence of kernel launches, buffer swaps, and time loops — either
   analytically (timing + counters, full size) or with data (values,
   test sizes). *)

module A = Artemis_dsl.Ast
module I = Artemis_dsl.Instantiate
module Plan = Artemis_ir.Plan
module Validate = Artemis_ir.Validate
module Counters = Artemis_gpu.Counters
module Trace = Artemis_obs.Trace
module Metrics = Artemis_obs.Metrics

let m_launches = Metrics.counter "exec.launches"

(** A schedule whose kernels carry concrete plans. *)
type step =
  | Run_plan of Plan.t
  | Swap of string * string
  | Loop of int * step list

type outcome = {
  counters : Counters.t;
  time_s : float;
  tflops : float;
  launches : int;
}

(** Configure an instantiated schedule with one plan per kernel, chosen by
    [plan_of]. *)
let rec configure ~plan_of (items : I.sched_item list) : step list =
  List.map
    (function
      | I.Launch k -> Run_plan (plan_of k)
      | I.Exchange (a, b) -> Swap (a, b)
      | I.Repeat (n, sub) -> Loop (n, configure ~plan_of sub))
    items

(** Rewrite every ping-pong time loop [Loop (n, [Run_plan p; Swap (a, b)])]
    with [n >= degree] into degree-[degree] blocked launches: an
    [n / degree] loop over the blocked plan — one launch covering
    [degree] steps, its final exchange hoisted into the loop's swap —
    followed by a remainder loop at degree 1.  Exact for any body, since
    the blocked launch is the composition
    [(launch; swap)^(degree-1); launch].  Other steps are left
    untouched (recursing into nests). *)
let temporal_rewrite ?(halo = Plan.Halo_recompute) ?(tbuf = Plan.Shared_double)
    ~degree steps =
  let rec go steps =
    List.concat_map
      (function
        | Loop (n, [ Run_plan p; Swap (a, b) ])
          when degree > 1 && n >= degree && p.Plan.temporal.degree = 1 ->
          let out, inp =
            if List.mem a (Artemis_ir.Kernel_facts.of_kernel p.kernel).final_outputs then (a, b)
            else (b, a)
          in
          let pb =
            { p with
              Plan.temporal = { Plan.degree; halo; tbuf; pair = Some (out, inp) }
            }
          in
          Loop (n / degree, [ Run_plan pb; Swap (a, b) ])
          :: (if n mod degree > 0 then
                [ Loop (n mod degree, [ Run_plan p; Swap (a, b) ]) ]
              else [])
        | Loop (n, sub) -> [ Loop (n, go sub) ]
        | step -> [ step ])
      steps
  in
  go steps

(* A step list whose plans passed [Validate.validate]: the runners gate
   every plan once, before the first launch, however often a loop
   repeats it. *)
type gated =
  | Launch of Validate.valid
  | Exchange of string * string
  | Repeat of int * gated list

let rec gate steps =
  List.map
    (function
      | Run_plan p -> (
        match Validate.validate p with
        | Ok v -> Launch v
        | Error vs -> invalid_arg (Validate.describe p vs))
      | Swap (a, b) -> Exchange (a, b)
      | Loop (n, sub) -> Repeat (n, gate sub))
    steps

(* Walk the gated steps in host order, counting launches. *)
let rec walk ~launch ~swap steps =
  List.iter
    (function
      | Launch v ->
        launch v;
        Metrics.incr m_launches
      | Exchange (a, b) -> swap a b
      | Repeat (n, sub) ->
        for _ = 1 to n do
          walk ~launch ~swap sub
        done)
    steps

(** Analytic execution: sum per-launch counters and times. *)
let measure_schedule (steps : step list) =
  Trace.with_span "exec.measure_schedule" @@ fun () ->
  let steps = gate steps in
  let counters = ref Counters.zero in
  let time = ref 0.0 in
  let launches = ref 0 in
  walk steps ~swap:(fun _ _ -> ()) ~launch:(fun v ->
      let m = Analytic.measure v in
      counters := Counters.add !counters m.counters;
      time := !time +. m.time_s;
      incr launches);
  let c = !counters in
  {
    counters = c;
    time_s = !time;
    tflops = (if !time > 0.0 then c.useful_flops /. !time /. 1e12 else 0.0);
    launches = !launches;
  }

(** Data execution over a store (swaps rebind grids, as the host code's
    pointer exchange does). *)
let run_schedule ?schedule (steps : step list) (store : Reference.store) ~scalars =
  Trace.with_span "exec.run_schedule" @@ fun () ->
  let steps = gate steps in
  walk steps
    ~launch:(fun v -> Kernel_exec.run ?schedule v store ~scalars)
    ~swap:(fun a b ->
      let ga = Reference.find_array store a and gb = Reference.find_array store b in
      Hashtbl.replace store a gb;
      Hashtbl.replace store b ga)
