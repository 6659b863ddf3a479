(* Resource assignment: which arrays to stage in shared memory or
   registers and which to read straight from global memory.

   Automatic policy: input arrays with reuse (read at more than one
   offset) are staged; single-use inputs and low-rank (1-D) arrays stay in
   global memory — staging them buys nothing and costs occupancy.  The
   domain expert's [#assign] clauses override the policy (Section II-B1),
   and an [occupancy t] target triggers the demotion loop of Section
   II-B2: while the shared-memory footprint caps occupancy below the
   target, demote the staged array with the fewest reads per point. *)

module A = Artemis_dsl.Ast
module An = Artemis_dsl.Analysis
module I = Artemis_dsl.Instantiate
module Plan = Artemis_ir.Plan
module Launch = Artemis_ir.Launch
module Estimate = Artemis_ir.Estimate
module Occupancy = Artemis_gpu.Occupancy

let array_rank (k : I.kernel) name =
  match List.assoc_opt name k.arrays with
  | Some dims -> Array.length dims
  | None -> 0

(** Automatic staging decision, before user overrides. *)
let automatic (k : I.kernel) =
  let rank = Array.length k.domain in
  let facts = Artemis_ir.Kernel_facts.of_kernel k in
  let offsets = facts.distinct_offsets and inter = facts.intermediates in
  List.filter_map
    (fun (name, _) ->
      if List.mem name inter then
        (* Intermediates of a fused kernel stay on chip. *)
        Some (name, A.Shmem)
      else if array_rank k name < rank then
        (* Low-rank (e.g. 1-D stretching) arrays: global/L2 serves them. *)
        None
      else
        match List.assoc_opt name offsets with
        | Some offs when List.length offs > 1 -> Some (name, A.Shmem)
        | Some _ | None -> None)
    k.arrays

(** Apply [#assign] user clauses on top of the automatic map. *)
let with_user (k : I.kernel) auto =
  List.fold_left
    (fun acc (name, pl) -> (name, pl) :: List.remove_assoc name acc)
    auto k.assign

(* Shared bytes a placement map costs under the rest of the plan. *)
let trial_plan (base : Plan.t) placement = { base with placement }

let occupancy_of (p : Plan.t) = (Estimate.resources p).occupancy.occupancy

(** Demote staged arrays (fewest reads per point first, never user-pinned
    ones) until the occupancy target is reachable or nothing is left to
    demote.  Returns the final placement map. *)
let ration (base : Plan.t) ~user_pinned ~target placement =
  let k = base.kernel in
  let reads = (Artemis_ir.Kernel_facts.of_kernel k).reads_per_point in
  let rec demote placement =
    let p = trial_plan base placement in
    if occupancy_of p >= target -. 1e-9 then placement
    else begin
      let res = Estimate.resources p in
      let shm_limited =
        res.occupancy.limiter = Occupancy.By_shared
        || res.shared_per_block > 0
      in
      if not shm_limited then placement
      else begin
        let candidates =
          List.filter
            (fun (name, pl) -> pl = A.Shmem && not (List.mem name user_pinned))
            placement
        in
        match
          List.sort
            (fun (a, _) (b, _) ->
              compare
                (Option.value ~default:0 (List.assoc_opt a reads))
                (Option.value ~default:0 (List.assoc_opt b reads)))
            candidates
        with
        | [] -> placement
        | (victim, _) :: _ ->
          demote ((victim, A.Gmem) :: List.remove_assoc victim placement)
      end
    end
  in
  demote placement

(** Full assignment for a plan skeleton: automatic policy, user overrides,
    then occupancy-targeted rationing. *)
let assign (base : Plan.t) ~honor_user ~target_occupancy =
  let k = base.kernel in
  let auto = automatic k in
  let placement, pinned =
    if honor_user then (with_user k auto, List.map fst k.assign) else (auto, [])
  in
  match target_occupancy with
  | None -> placement
  | Some t -> ration base ~user_pinned:pinned ~target:t placement
