(* Every kernel-only fact that more than one module reads, or that each
   tuner candidate would otherwise recompute, built in one place and
   cached per domain on the kernel value ([Kernel_memo]).  The record is
   plain data (no closure, lazy or mutable field), so the facts of a
   [Marshal] copy of a kernel are [=] to the facts of the kernel. *)

module A = Artemis_dsl.Ast
module I = Artemis_dsl.Instantiate
module An = Artemis_dsl.Analysis
module Static = Artemis_static.Static

type read_array = {
  name : string;
  reads : int;
  inter : bool;
  ext : An.extent;
  planes : (int list * int list) array;
}

type t = {
  read_accesses : An.access list;
  required_extents : (string * An.extent) list;
  distinct_offsets : (string * int array list) list;
  reads_per_point : (string * int) list;
  self_deps : Static.dep list;
  pure_inputs : string list;
  intermediates : string list;
  final_outputs : string list;
  input_extent : An.extent;
  recompute_halo : int;
  interior_lo : int array;
  interior_hi : int array;
  read_arrays : read_array list;
  live_temps : int;
  flop_pressure : int;
  offset_ranges : (string * (int * int) array) list;
  guard_exts : An.extent list;
}

(* Maximum number of simultaneously live temporaries across the body:
   a temp is live from its definition to its last use. *)
let max_live_temps (body : A.stmt list) =
  let stmts = Array.of_list body in
  let n = Array.length stmts in
  let temps = Hashtbl.create 16 in
  Array.iteri
    (fun i st ->
      match st with
      | A.Decl_temp (name, _) -> Hashtbl.replace temps name (i, i)
      | A.Assign _ | A.Accum _ -> ())
    stmts;
  Array.iteri
    (fun i st ->
      A.fold_stmt_exprs
        (fun () e ->
          List.iter
            (fun s ->
              match Hashtbl.find_opt temps s with
              | Some (def, _) -> Hashtbl.replace temps s (def, i)
              | None -> ())
            (A.scalars_of_expr e))
        () st)
    stmts;
  let live_at = Array.make (max n 1) 0 in
  Hashtbl.iter
    (fun _ (def, last) ->
      for i = def to last do
        live_at.(i) <- live_at.(i) + 1
      done)
    temps;
  Array.fold_left max 0 live_at

(* Arithmetic volume of the body: NVCC's register demand for spill-free
   compilation of flop-heavy stencil kernels grows roughly linearly with
   the expression work per point (common subexpressions, staged operands,
   scheduling slack).  flops/5 calibrates the Table-I kernels onto the
   paper's observations: rhs4center (666 FLOPs) compiles spill-free at
   255 registers, rhs4sgcurv maxfuse (2126 FLOPs) spills even at 255, the
   spatial kernels land at 12.5-25 % occupancy. *)
let flop_pressure (body : A.stmt list) =
  List.fold_left (fun acc st -> acc + An.flops_of_stmt st) 0 body / 5

(* The range of a set of offset vectors per dimension, widened to 0. *)
let shift_range rank offs =
  Array.init rank (fun d ->
      List.fold_left
        (fun (lo, hi) (v : int array) -> (min lo v.(d), max hi v.(d)))
        (0, 0) offs)

(* Along stream dimension [s]: the plane offsets read at an in-plane
   offset, then the centre-only ones. *)
let planes_along offs s =
  let plane_offsets = List.map (fun (v : int array) -> v.(s)) offs |> List.sort_uniq compare in
  let plane_has_inplane o =
    List.exists
      (fun (v : int array) ->
        v.(s) = o
        && Array.exists (fun d -> d <> s && v.(d) <> 0) (Array.init (Array.length v) Fun.id))
      offs
  in
  List.partition plane_has_inplane plane_offsets

let build (k : I.kernel) =
  let rank = Array.length k.domain in
  let stmt_reads = List.map An.accesses_of_stmt k.body in
  let read_accesses = List.concat stmt_reads in
  let required_extents =
    Hashtbl.fold (fun a e acc -> (a, e) :: acc) (An.required_extents k) []
    |> List.sort compare
  in
  let extent_of a =
    match List.assoc_opt a required_extents with
    | Some e -> e
    | None -> An.zero_extent rank
  in
  let distinct_offsets = An.offsets_of_reads k.iters read_accesses in
  let reads_per_point = An.tally_reads k read_accesses in
  let written = List.filter_map A.written_array k.body |> List.sort_uniq compare in
  let pure_inputs =
    List.filter (fun (a, _) -> not (List.mem a written)) k.arrays |> List.map fst
  in
  let intermediates =
    List.filter
      (fun a -> List.exists (fun (r : An.access) -> r.array = a) read_accesses)
      written
  in
  let input_extent =
    List.fold_left
      (fun acc a -> An.union_extent acc (extent_of a))
      (An.zero_extent rank) pure_inputs
  in
  let read_arrays =
    List.map
      (fun (name, reads) ->
        let offs = Option.value ~default:[] (List.assoc_opt name distinct_offsets) in
        {
          name;
          reads;
          inter = List.mem name intermediates;
          ext = extent_of name;
          planes = Array.init (List.length k.iters) (planes_along offs);
        })
      reads_per_point
  in
  {
    read_accesses;
    required_extents;
    distinct_offsets;
    reads_per_point;
    self_deps = List.map (Static.self_dependences ~iters:k.iters) k.body;
    pure_inputs;
    intermediates;
    final_outputs = List.filter (fun a -> not (List.mem a intermediates)) written;
    input_extent;
    recompute_halo =
      List.fold_left
        (fun acc a ->
          Array.fold_left (fun acc (lo, hi) -> max acc (max (-lo) hi)) acc (extent_of a))
        0 intermediates;
    interior_lo = Array.init rank (fun d -> max 0 (-fst input_extent.(d)));
    interior_hi = Array.init rank (fun d -> k.domain.(d) - 1 - max 0 (snd input_extent.(d)));
    read_arrays;
    live_temps = max_live_temps k.body;
    flop_pressure = flop_pressure k.body;
    offset_ranges =
      List.map (fun (a, offs) -> (a, shift_range (List.length k.iters) offs)) distinct_offsets;
    guard_exts =
      List.map
        (fun reads ->
          shift_range (List.length k.iters) (List.map (An.offset_vector k.iters) reads))
        stmt_reads;
  }

let of_kernel = Artemis_dsl.Kernel_memo.memo build
