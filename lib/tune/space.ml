(* Autotuning search-space construction with the paper's pruning rules
   (Section V): block extents and unroll factors are powers of two, block
   extents in [4, 256] per dimension (streamed dimension pinned to one
   thread), unroll bounded by 8 for bandwidth-bound and 4 for
   compute-bound stencils, and unrolled versions ordered by increasing
   unroll product so register budgets can be stepped monotonically. *)

module Plan = Artemis_ir.Plan

let pow2s lo hi =
  let rec go v acc = if v > hi then List.rev acc else go (v * 2) (v :: acc) in
  go lo []

(* Cartesian product of per-dimension choices, dimension 0 outermost. *)
let cartesian (choices : int list array) =
  Array.fold_right
    (fun dim_choices acc ->
      List.concat_map (fun v -> List.map (fun rest -> v :: rest) acc) dim_choices)
    choices [ [] ]
  |> List.map Array.of_list

(** Candidate thread-block shapes for a scheme.  Per-dimension extents are
    powers of two in [4, 256]; the streamed dimension is 1; total threads
    capped at the device block limit. *)
let block_candidates ~rank ~(scheme : Plan.scheme) ~max_threads =
  let per_dim d =
    match scheme with
    | Plan.Serial_stream s | Plan.Concurrent_stream (s, _) ->
      if d = s then [ 1 ] else pow2s 4 256
    | Plan.Tiled ->
      (* Keep z modest: CUDA caps block z at 64 and deep z-tiles waste
         occupancy; x gets the full range for coalescing. *)
      if rank = 3 && d = 0 then [ 1; 2; 4; 8 ] else pow2s 4 256
  in
  cartesian (Array.init rank per_dim)
  |> List.filter (fun b ->
         let threads = Array.fold_left ( * ) 1 b in
         threads >= 32 && threads <= max_threads)

(** Candidate unroll vectors, ordered by increasing product (the paper's
    monotone exploration order).  [bound] is 8 or 4 per the theoretical
    bandwidth/compute classification. *)
let unroll_candidates ~rank ~(scheme : Plan.scheme) ~bound =
  let per_dim d =
    match scheme with
    | Plan.Serial_stream s | Plan.Concurrent_stream (s, _) ->
      if d = s then [ 1 ] else pow2s 1 bound
    | Plan.Tiled -> if rank = 3 && d = 0 then [ 1; 2 ] else pow2s 1 bound
  in
  cartesian (Array.init rank per_dim)
  |> List.sort (fun a b ->
         compare (Array.fold_left ( * ) 1 a) (Array.fold_left ( * ) 1 b))

(** maxrregcount steps the tuner may set (Section V). *)
let reg_steps = [ 32; 64; 128; 255 ]

(** Smallest register step that avoids spills for a plan, if any: the
    "dynamically increment registers per thread so that only non-spill
    configurations are explored" rule.  The spill-free requirement does
    not depend on maxrregcount, and a budget [r] spills nothing exactly
    when the requirement is at most [r], so one estimate answers for
    every step. *)
let min_nonspill_regs (p : Plan.t) =
  let needed = (Artemis_ir.Estimate.resources p).regs_per_thread in
  List.find_opt (fun r -> needed <= r) reg_steps

(** Concurrent-streaming chunk candidates. *)
let chunk_candidates ~extent = List.filter (fun c -> c <= extent) [ 16; 32; 64; 128 ]

(** Temporal-blocking degree candidates above the unblocked baseline:
    powers of two in [2, max_degree].  Degree 1 (no blocking) is always
    implicitly present, so [max_degree <= 1] yields the empty list. *)
let degree_candidates ~max_degree = pow2s 2 max_degree
