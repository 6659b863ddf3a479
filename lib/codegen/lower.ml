(* Lowering: DSL kernel + options -> kernel plan.  This is where ARTEMIS's
   optimization decisions become a concrete code version:

   - tiling scheme (overlapped tiling / serial / concurrent streaming),
   - thread block shape and unroll factors (pragma, tuner, or defaults),
   - resource assignment with user overrides and occupancy rationing,
   - statement decomposition + retiming when homogenizable,
   - storage/computation folding when pointwise chains exist,
   - load/compute perspective and prefetching flags. *)

module A = Artemis_dsl.Ast
module An = Artemis_dsl.Analysis
module I = Artemis_dsl.Instantiate
module Plan = Artemis_ir.Plan
module Device = Artemis_gpu.Device
module Trace = Artemis_obs.Trace
module Metrics = Artemis_obs.Metrics

let m_plans = Metrics.counter "lower.plans"

(* Default block shapes, matching the paper's Section VIII-G baselines:
   (x=32,y=16) for streamed iterative stencils, (x=16,y=16) for streamed
   register-constrained spatial stencils, (x=16,y=4,z=4) non-streaming. *)
let default_block rank scheme =
  match (scheme, rank) with
  | Plan.Tiled, 3 -> [| 4; 4; 16 |]
  | Plan.Tiled, 2 -> [| 8; 32 |]
  | Plan.Tiled, _ -> [| 256 |]
  | (Plan.Serial_stream s | Plan.Concurrent_stream (s, _)), _ ->
    let b = Array.make rank 1 in
    let inplane = List.filter (fun d -> d <> s) (List.init rank Fun.id) in
    (match List.rev inplane with
     | x :: y :: _ ->
       b.(x) <- 32;
       b.(y) <- 16
     | [ x ] -> b.(x) <- 256
     | [] -> ());
    b

let resolve_scheme rank (o : Options.t) =
  match o.scheme with
  | Options.Force_tiled -> Plan.Tiled
  | Options.Force_stream d -> Plan.Serial_stream (Option.value ~default:0 d)
  | Options.Force_concurrent (d, chunk) ->
    Plan.Concurrent_stream (Option.value ~default:0 d, chunk)
  | Options.Auto ->
    (* Streaming pays when there is a third dimension to walk. *)
    if rank >= 3 then Plan.Serial_stream 0 else Plan.Tiled

(** Lower one kernel under the given options.
    The returned plan is not yet validated: pass it through
    [Validate.validate] before measuring or running it. *)
let lower (device : Device.t) (kernel : I.kernel) (o : Options.t) =
  Trace.with_span "lower.plan" ~attrs:[ ("kernel", Str kernel.kname) ] @@ fun () ->
  Metrics.incr m_plans;
  let rank = Array.length kernel.domain in
  let scheme = resolve_scheme rank o in
  let block =
    match o.block with
    | Some b ->
      let b = Array.copy b in
      (* Streamed dimension always runs with one thread. *)
      (match scheme with
       | Plan.Serial_stream s | Plan.Concurrent_stream (s, _) -> b.(s) <- 1
       | Plan.Tiled -> ());
      b
    | None -> default_block rank scheme
  in
  let unroll =
    match o.unroll with
    | Some u -> Array.copy u
    | None -> Array.make rank 1
  in
  (* Retiming: decompose the body when every term homogenizes along the
     stream dimension (or the slowest dimension when not streaming). *)
  let retime_dim =
    match scheme with
    | Plan.Serial_stream s | Plan.Concurrent_stream (s, _) -> s
    | Plan.Tiled -> 0
  in
  let kernel, retimed =
    if o.retime then
      match Retime.apply kernel ~dim_index:retime_dim with
      | Some k' -> (k', true)
      | None -> (kernel, false)
    else (kernel, false)
  in
  let fold = if o.fold then An.foldable_groups kernel else [] in
  let base =
    {
      Plan.kernel;
      device;
      scheme;
      block;
      unroll;
      distribution = o.distribution;
      placement = [];
      prefetch = o.prefetch;
      perspective = o.perspective;
      retime = retimed;
      fold;
      max_regs = o.max_regs;
      time_tile = 1;
      temporal = Plan.no_temporal;
    }
  in
  let placement =
    if o.use_shared then
      Resource_assign.assign base ~honor_user:o.honor_user_assign
        ~target_occupancy:o.target_occupancy
    else []
  in
  { base with placement }

(** Lower applying the kernel's own pragma as the option base — what the
    CLI does for an un-tuned "baseline version" (Section VII, step 1). *)
let lower_with_pragma (device : Device.t) (kernel : I.kernel) (o : Options.t) =
  Trace.with_span "lower.with_pragma" ~attrs:[ ("kernel", Str kernel.kname) ]
  @@ fun () ->
  let o = Options.of_pragma ~base:o kernel.iters kernel.pragma in
  lower device kernel o
