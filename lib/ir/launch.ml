(* Launch geometry and staging layout of a plan: tile shapes, halos, grid
   extents, shared/register buffer structure, and synchronization counts.
   The executor, the analytic counter evaluator, the resource estimator and
   the CUDA emitter all derive their quantities from this one module so
   they agree by construction. *)

module A = Artemis_dsl.Ast
module An = Artemis_dsl.Analysis

type geometry = {
  rank : int;
  domain : int array;
  tile : int array;  (** output points per block per dimension *)
  grid : int array;  (** blocks per dimension *)
  total_blocks : int;
  interior_lo : int array;  (** first updated index per dimension *)
  interior_hi : int array;  (** last updated index per dimension (inclusive) *)
  input_extent : An.extent;  (** union of read extents of pure inputs *)
  steps_per_block : int;  (** plane steps walked when streaming, else 1 *)
}

(** How the reads of one array are staged inside the kernel. *)
type staging =
  | Stage_global  (** read straight from global memory at each use *)
  | Stage_const  (** constant memory (small read-only 1-D arrays) *)
  | Stage_tile of { halo : (int * int) array }
      (** whole halo-extended tile staged in shared memory (non-streaming) *)
  | Stage_stream of {
      shared_planes : int list;  (** stream-offsets staged as 2-D shared planes *)
      reg_planes : int list;  (** stream-offsets held in per-thread registers *)
      halo : (int * int) array;  (** in-plane halo (entries on the stream dim are (0,0)) *)
    }
  | Stage_fold_member of string
      (** folded into the named leader's buffer (Section III-B4): loaded
          from global once during staging, no dedicated storage, compute
          reads hit the leader *)

type buffer = {
  array : string;
  staging : staging;
  is_intermediate : bool;  (** written and re-read within the (fused) kernel *)
  extent : An.extent;  (** required read extent of this array *)
  reads_per_point : int;  (** textual reads per output point *)
}

(** Geometry of [plan].  Interior bounds come from the union of input-array
    extents: boundary points whose neighborhood leaves the domain keep
    their previous values, as the generated CUDA's guards arrange. *)
let geometry (p : Plan.t) =
  let k = p.kernel in
  let f = Kernel_facts.of_kernel k in
  let rank = Array.length k.domain in
  let input_extent = f.input_extent in
  let tile =
    Array.init rank (fun d ->
        match p.scheme with
        | Plan.Serial_stream s when d = s -> k.domain.(d)
        | Plan.Concurrent_stream (s, chunk) when d = s -> chunk
        | Plan.Tiled | Plan.Serial_stream _ | Plan.Concurrent_stream _ ->
          p.block.(d) * p.unroll.(d))
  in
  let grid = Array.init rank (fun d -> (k.domain.(d) + tile.(d) - 1) / tile.(d)) in
  let total_blocks = Array.fold_left ( * ) 1 grid in
  let steps_per_block =
    match Plan.stream_dim p with
    | None -> 1
    | Some s ->
      (* Walk the tile along the stream dimension plus the pipeline warmup
         needed to fill the plane window. *)
      let lo, hi = input_extent.(s) in
      tile.(s) + (hi - lo)
  in
  {
    rank; domain = k.domain; tile; grid; total_blocks; interior_lo = f.interior_lo;
    interior_hi = f.interior_hi; input_extent; steps_per_block;
  }

(* In-plane halo of one array: its extent with the stream dimension zeroed. *)
let in_plane_halo rank stream_dim (e : An.extent) =
  Array.init rank (fun d ->
      match stream_dim with
      | Some s when d = s -> (0, 0)
      | _ -> e.(d))

(** Staging layout of every array the kernel reads, given the plan's
    placement map.  With streaming, a plane whose reads all sit at the
    in-plane center can live in a per-thread register (Listing 2's
    [in_reg_m1]/[in_reg_p1]); planes read at in-plane offsets need a
    shared buffer.  Retiming collapses shared planes to the center plane
    only (inputs are then read once per plane and accumulated). *)
let buffers (p : Plan.t) =
  let rank = Array.length p.kernel.domain in
  let stream = Plan.stream_dim p in
  let staging_for (ra : Kernel_facts.read_array) =
    let placement = Plan.placement_of p ra.name in
    let placement =
      if ra.inter && placement = A.Gmem && Plan.uses_shared p then A.Shmem else placement
    in
    match placement with
    | A.Gmem -> Stage_global
    | A.Cmem -> Stage_const
    | A.Regs | A.Shmem -> (
      match stream with
      | None -> Stage_tile { halo = ra.ext }
      | Some s ->
        let shared, regs = ra.planes.(s) in
        let shared, regs =
          if p.retime then
            (* Retimed: only the incoming plane is staged; contributions
               accumulate in registers across the window. *)
            ((if shared = [] && regs = [] then [] else [ 0 ]), [])
          else (shared, regs)
        in
        (* Registers requested but in-plane offsets force shared planes
           all the same. *)
        Stage_stream { shared_planes = shared; reg_planes = regs;
                       halo = in_plane_halo rank stream ra.ext })
  in
  (* Folding (Section III-B4): non-leader members of an enabled fold group
     alias the leader's buffer.  Only groups whose leader ends up staged
     (shared or registers) fold; global-read groups gain nothing. *)
  let fold_leader name =
    List.find_map
      (fun (_, members) ->
        match members with
        | leader :: rest when List.mem name rest && Plan.placement_of p leader <> A.Gmem ->
          Some leader
        | _ -> None)
      p.fold
  in
  List.map
    (fun (ra : Kernel_facts.read_array) ->
      {
        array = ra.name;
        staging =
          (match fold_leader ra.name with
           | Some leader -> Stage_fold_member leader
           | None -> staging_for ra);
        is_intermediate = ra.inter;
        extent = ra.ext;
        reads_per_point = ra.reads;
      })
    (Kernel_facts.of_kernel p.kernel).read_arrays

(** Shared-memory bytes per block implied by the staging layout. *)
let shared_bytes_per_block (p : Plan.t) (g : geometry) bufs =
  let elem = 8 in
  let plane_elems halo =
    List.fold_left
      (fun acc d ->
        match Plan.stream_dim p with
        | Some s when d = s -> acc
        | _ ->
          let lo, hi = halo.(d) in
          acc * (p.block.(d) * p.unroll.(d) + (hi - lo)))
      1
      (List.init g.rank Fun.id)
  in
  let tile_elems halo =
    List.fold_left
      (fun acc d ->
        let lo, hi = halo.(d) in
        acc * (g.tile.(d) + (hi - lo)))
      1
      (List.init g.rank Fun.id)
  in
  List.fold_left
    (fun acc b ->
      match b.staging with
      | Stage_global | Stage_const | Stage_fold_member _ -> acc
      | Stage_tile { halo } -> acc + (tile_elems halo * elem)
      | Stage_stream { shared_planes; halo; _ } ->
        acc + (List.length shared_planes * plane_elems halo * elem))
    0 bufs

(** Barrier executions per block: streaming needs two per plane step
    (compute / shift, Listing 2); a staged non-streaming kernel needs one
    after the cooperative load. *)
let syncs_per_block (p : Plan.t) (g : geometry) bufs =
  let any_shared =
    List.exists
      (fun b ->
        match b.staging with
        | Stage_tile _ | Stage_stream _ -> true
        | Stage_global | Stage_const | Stage_fold_member _ -> false)
      bufs
  in
  if not any_shared then 0
  else
    match Plan.stream_dim p with
    | None -> 1
    | Some _ -> 2 * g.steps_per_block

(** Number of arrays whose streamed loads can be prefetched (those with at
    least one staged plane). *)
let prefetchable_arrays bufs =
  List.length
    (List.filter
       (fun b ->
         match b.staging with
         | Stage_stream { shared_planes; reg_planes; _ } ->
           shared_planes <> [] || reg_planes <> []
         | Stage_tile _ | Stage_global | Stage_const | Stage_fold_member _ -> false)
       bufs)
