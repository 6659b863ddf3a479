(* Counter accounting for one kernel launch under a plan.

   Every quantity is derived from the launch geometry and staging layout
   (Launch), so the block executor and the whole-grid analytic evaluator
   charge exactly the same traffic.  All regions are axis-aligned boxes,
   so per-block counts are products of 1-D interval lengths; global
   transactions are counted row-by-row through the coalescing model.

   DRAM model: staged arrays cost their unique block footprint (tile plus
   a halo share that misses L2 when neighbouring blocks run far apart);
   unstaged reads additionally pay for intra-block reuse that spills out
   of L2, with the working set computed from the number of concurrently
   resident blocks — this is what makes streaming-without-shared-memory
   lose to plain tiling (paper, Section VIII-F). *)

module A = Artemis_dsl.Ast
module An = Artemis_dsl.Analysis
module Plan = Artemis_ir.Plan
module Launch = Artemis_ir.Launch
module Estimate = Artemis_ir.Estimate
module Counters = Artemis_gpu.Counters
module Coalesce = Artemis_gpu.Coalesce
module Static = Artemis_static.Static

let elem_bytes = 8

(** The DRAM/L2 model constants.  Each plan's device carries its own
    ([Device.halo_miss]/[Device.l2_hit_floor]); [default_model] is the
    P100's, for reports that name the calibration without a device. *)
type model = {
  halo_miss : float;
  l2_hit_floor : float;
}

let default_model =
  let d = Artemis_gpu.Device.p100 in
  { halo_miss = d.halo_miss; l2_hit_floor = d.l2_hit_floor }

(* Per-statement static description: a function of the kernel alone. *)
type stmt_info = {
  stmt : A.stmt;
  flops : int;
  writes : string;
  write_is_final : bool;
  write_is_array : bool;  (** false for temporaries *)
  region_ext : An.extent;  (** extension of the tile this statement covers *)
  guard_ext : An.extent;  (** min/max read shifts: where the statement runs *)
  reads : (string * int array * int) list;
      (** distinct array reads (iterator offsets) in first-occurrence
          order, each with its number of textual occurrences *)
}

(* One globally read array's reads in one statement, charged together.
   Within a statement every read covers the same region, so the reads'
   union box is that region shifted by the bounding box of their
   offsets, and their sector count depends on an offset only through its
   innermost residue modulo a sector: one representative offset per
   residue prices them all. *)
type group = {
  slot : int;  (** numbers the array among the plan's globally read ones *)
  uses : int;  (** occurrences of the array in the statement *)
  off_lo : int array;  (** per dimension: least read offset *)
  off_hi : int array;  (** per dimension: greatest read offset *)
  strides : int array option;
  residue_uses : int array;  (** per innermost sector residue read: its occurrences *)
  residue_off : int array array;  (** per residue: one of its offsets *)
}

(* Where a statement's result goes. *)
type store =
  | Store_none  (** temporary: registers *)
  | Store_final of int array option  (** strides of the output array *)
  | Store_scratch  (** intermediate staged in shared memory *)
  | Store_global of int array option  (** intermediate in global memory *)

type stmt_cost = {
  info : stmt_info;
  saved_flops : int;  (** combine ops moved to staging by folding *)
  guard : (int * int) array;  (** region where the statement's guard holds *)
  store : store;
  shared_uses : int;  (** shared loads per point of the unretimed staged reads *)
  shared_once : int array;
      (** retimed: one shared load per distinct in-plane offset across the
          whole body; each id numbers an (array, in-plane offset) *)
  groups : group array;  (** globally read arrays, in first-read order *)
}

(* A staged (or fold-member) buffer's once-per-block load. *)
type load = {
  buf : Launch.buffer;
  lstrides : int array option;
  staged : bool;  (** false for a fold member, loaded in its leader's pass *)
  shared_store : bool;  (** values enter shared memory *)
  fold_ops : int;  (** staging-time fold combines per element *)
}

(* The part of a launch's pricing that the kernel and the plan's staging
   choices fix: every tuner candidate that differs only in block, unroll,
   scheme chunk, perspective, prefetch, registers or temporal blocking
   shares one, see [staging]. *)
type staging = {
  bufs : Launch.buffer list;
  stmts : stmt_cost array;
  loads : load array;
  global_arrays : string array;  (** slot -> array of the [groups] *)
  inplane_reads : int;  (** number of [shared_once] ids *)
  no_shift : int array;  (** zero offset: an unshifted box *)
}

(* A staging value's fields, then what the candidate's geometry and
   resources decide. *)
type ctx = {
  plan : Plan.t;
  geom : Launch.geometry;
  bufs : Launch.buffer list;
  res : Estimate.resources;
  stmts : stmt_cost array;
  loads : load array;
  global_arrays : string array;  (** slot -> array of the [groups] *)
  inplane_reads : int;  (** number of [shared_once] ids *)
  concurrent_blocks : int;
  serial_waves : int;
      (** launch phases forced by self-dependences: 1 = fully independent
          blocks; a dependence along a grid dimension serializes the
          block grid into that many wavefront phases (same bytes/flops,
          reduced parallelism per phase) *)
  no_shift : int array;  (** zero offset: an unshifted box *)
}

let strides_of dims =
  let r = Array.length dims in
  let s = Array.make r 1 in
  for d = r - 2 downto 0 do
    s.(d) <- s.(d + 1) * dims.(d + 1)
  done;
  s

(* Iterator-space offsets of reads in one statement, duplicates merged
   into a multiplicity at their first occurrence. *)
let stmt_reads iters stmt =
  let all =
    A.fold_stmt_exprs
      (fun acc e ->
        acc
        @ List.map
            (fun (a : An.access) -> (a.array, An.offset_vector iters a))
            (An.accesses_of_expr e))
      [] stmt
  in
  let counts = Hashtbl.create 16 in
  List.iter
    (fun r -> Hashtbl.replace counts r (1 + Option.value ~default:0 (Hashtbl.find_opt counts r)))
    all;
  List.filter_map
    (fun ((a, off) as r) ->
      match Hashtbl.find_opt counts r with
      | Some n ->
        Hashtbl.remove counts r;
        Some (a, off, n)
      | None -> None)
    all

(* What the counters need from the kernel alone, built once per kernel
   value: the statement descriptions, the dimensions a self-dependence
   moves along, each array's strides, and the staging parts built so
   far under the plan fields they depend on ([staging]).  Candidates
   share their base plan's kernel and mostly its staging choices, so a
   search builds a handful of staging parts.  The table is per domain
   ([Kernel_memo]), so pool workers share nothing. *)
type per_kernel = {
  infos : stmt_info list;
  dep_dims : bool array;
  strides : (string * int array) list;
  stagings :
    (Plan.placement_map * int option * bool * (A.binop * string list) list, staging) Hashtbl.t;
}

let per_kernel =
  Artemis_dsl.Kernel_memo.memo (fun (k : Artemis_dsl.Instantiate.kernel) ->
      let facts = Artemis_ir.Kernel_facts.of_kernel k in
      let rank = Array.length k.domain in
      let arrays = List.map fst k.arrays in
      let infos =
        List.map2
          (fun stmt guard_ext ->
            let writes =
              match stmt with
              | A.Decl_temp (n, _) -> n
              | A.Assign (a, _, _) | A.Accum (a, _, _) -> a
            in
            let reads = stmt_reads k.iters stmt in
            {
              stmt;
              flops = An.flops_of_stmt stmt;
              writes;
              write_is_final = List.mem writes facts.final_outputs;
              write_is_array = List.mem writes arrays;
              region_ext =
                (match List.assoc_opt writes facts.required_extents with
                 | Some e -> e
                 | None -> An.zero_extent rank);
              guard_ext;
              reads;
            })
          k.body facts.guard_exts
      in
      (* Self-dependent statements serialize the block grid along every
         dimension a dependence distance moves through. *)
      let dep_dims = Array.make (max rank 1) false in
      List.iter
        (function
          | Static.No_dep -> ()
          | Static.Unknown -> Array.fill dep_dims 0 rank true
          | Static.Uniform deltas ->
            List.iter
              (fun delta ->
                Array.iteri
                  (fun d c -> if c <> 0 && d < rank then dep_dims.(d) <- true)
                  delta)
              deltas)
        facts.self_deps;
      {
        infos;
        dep_dims;
        strides = List.map (fun (a, dims) -> (a, strides_of dims)) k.arrays;
        stagings = Hashtbl.create 8;
      })

(* Chain combine-ops per point saved by folding: each occurrence of a fold
   group in a statement replaces (n-1) combines with one staged read. *)
let fold_savings (p : Plan.t) stmt =
  if p.fold = [] then 0
  else begin
    let saved = ref 0 in
    let rec scan (e : A.expr) =
      match e with
      | A.Bin (op, _, _) when op = A.Mul || op = A.Add ->
        let rec flatten = function
          | A.Bin (o, a, b) when o = op -> flatten a @ flatten b
          | other -> [ other ]
        in
        let parts = flatten e in
        let arrays =
          List.filter_map (function A.Access (a, _) -> Some a | _ -> None) parts
        in
        (match
           List.find_opt
             (fun (gop, members) ->
               gop = op && List.for_all (fun m -> List.mem m arrays) members)
             p.fold
         with
         | Some (_, members) -> saved := !saved + (List.length members - 1)
         | None -> ());
        List.iter scan parts
      | A.Bin (_, e1, e2) -> scan e1; scan e2
      | A.Neg e1 -> scan e1
      | A.Call (_, args) -> List.iter scan args
      | A.Const _ | A.Scalar_ref _ | A.Access _ -> ()
    in
    A.fold_stmt_exprs (fun () e -> scan e) () stmt;
    !saved
  end

let is_staged (b : Launch.buffer) =
  match b.staging with
  | Launch.Stage_tile _ | Launch.Stage_stream _ -> true
  | Launch.Stage_global | Launch.Stage_const | Launch.Stage_fold_member _ -> false

let buffer_of bufs name = List.find_opt (fun (b : Launch.buffer) -> b.array = name) bufs

(* Reads of [offset] hit shared memory (vs a register plane / fold alias)? *)
let read_cost (p : Plan.t) bufs array_name (off : int array) =
  match buffer_of bufs array_name with
  | None -> `Global
  | Some b -> (
    match b.staging with
    | Launch.Stage_global -> `Global
    | Launch.Stage_const -> `Const
    | Launch.Stage_fold_member leader -> (
      (* The chain reads the leader's buffer once; members are free. *)
      match buffer_of bufs leader with
      | Some lb when is_staged lb -> `Free
      | _ -> `Global)
    | Launch.Stage_tile _ -> `Shared
    | Launch.Stage_stream { reg_planes; _ } -> (
      match Plan.stream_dim p with
      | Some s when (not p.retime) && List.mem off.(s) reg_planes -> `Reg
      | Some _ | None -> `Shared))

(* A statement's global reads [(slot, strides, offset, uses)], in read
   order, as one group per array in first-read order. *)
let group_reads ~rank reads =
  let per = Coalesce.elems_per_sector ~elem_bytes in
  let residue (off : int array) = ((off.(rank - 1) mod per) + per) mod per in
  let slots =
    List.fold_left (fun acc (s, _, _, _) -> if List.mem s acc then acc else s :: acc) [] reads
  in
  List.rev_map
    (fun slot ->
      let mine = List.filter (fun (s, _, _, _) -> s = slot) reads in
      let _, strides, _, _ = List.hd mine in
      let offs = List.map (fun (_, _, off, _) -> off) mine in
      let uses_where keep =
        List.fold_left (fun acc (_, _, off, n) -> if keep off then acc + n else acc) 0 mine
      in
      let bound pick init =
        Array.init rank (fun d -> List.fold_left (fun acc off -> pick acc off.(d)) init offs)
      in
      let residues = List.sort_uniq compare (List.map residue offs) in
      let of_residue f =
        Array.of_list (List.map (fun r -> f (fun off -> residue off = r)) residues)
      in
      {
        slot;
        uses = uses_where (fun _ -> true);
        off_lo = bound min max_int;
        off_hi = bound max min_int;
        strides;
        residue_uses = of_residue uses_where;
        residue_off = of_residue (fun keep -> List.find keep offs);
      })
    slots

(* The staging part of [make_ctx]: depends on the kernel and on the
   plan's placement, stream dimension, retiming and folding only. *)
let make_staging (f : per_kernel) (p : Plan.t) =
  let rank = Array.length p.kernel.domain in
  let bufs = Launch.buffers p in
  let strides_for a = List.assoc_opt a f.strides in
  (* Dense numbering in first-read order, for globally read arrays and
     for retimed in-plane reads. *)
  let numbering () =
    let ids = Hashtbl.create 8 in
    ( ids,
      fun key ->
        match Hashtbl.find_opt ids key with
        | Some i -> i
        | None ->
          let i = Hashtbl.length ids in
          Hashtbl.replace ids key i;
          i )
  in
  let global_slots, slot_of = numbering () in
  let inplane_ids, inplane_id = numbering () in
  let stmts =
    List.map
      (fun (si : stmt_info) ->
        let store =
          if si.write_is_final then Store_final (strides_for si.writes)
          else if si.write_is_array then
            match buffer_of bufs si.writes with
            | Some b when is_staged b -> Store_scratch
            | _ -> Store_global (strides_for si.writes)
          else Store_none
        in
        let shared_uses = ref 0 and shared_once = ref [] and globals = ref [] in
        List.iter
          (fun (a, off, uses) ->
            match read_cost p bufs a off with
            | `Free | `Const | `Reg -> ()
            | `Shared when p.retime ->
              let inplane = Array.copy off in
              (match Plan.stream_dim p with Some s -> inplane.(s) <- 0 | None -> ());
              shared_once := inplane_id (a, inplane) :: !shared_once
            | `Shared -> shared_uses := !shared_uses + uses
            | `Global -> globals := (slot_of a, strides_for a, off, uses) :: !globals)
          si.reads;
        {
          info = si;
          saved_flops = fold_savings p si.stmt;
          guard =
            Array.init rank (fun d ->
                let lo, hi = si.guard_ext.(d) in
                (max 0 (-lo), p.kernel.domain.(d) - 1 - max 0 hi));
          store;
          shared_uses = !shared_uses;
          shared_once = Array.of_list (List.rev !shared_once);
          groups = Array.of_list (group_reads ~rank (List.rev !globals));
        })
      f.infos
    |> Array.of_list
  in
  let loads =
    List.filter_map
      (fun (b : Launch.buffer) ->
        let staged = is_staged b in
        let load ~shared_store =
          (* staging-time folding combines, charged on the leader *)
          let fold_ops =
            if not staged then 0
            else
              List.find_map
                (fun (_, members) ->
                  match members with
                  | leader :: _ :: _ when leader = b.array -> Some (List.length members - 1)
                  | _ -> None)
                p.fold
              |> Option.value ~default:0
          in
          Some { buf = b; lstrides = strides_for b.array; staged; shared_store; fold_ops }
        in
        match b.staging with
        | Launch.Stage_tile _ -> load ~shared_store:true
        | Launch.Stage_stream { shared_planes; _ } -> load ~shared_store:(shared_planes <> [])
        | Launch.Stage_fold_member _ -> load ~shared_store:false
        | Launch.Stage_global | Launch.Stage_const -> None)
      bufs
    |> Array.of_list
  in
  {
    bufs; stmts; loads;
    global_arrays =
      (let names = Array.make (Hashtbl.length global_slots) "" in
       Hashtbl.iter (fun a i -> names.(i) <- a) global_slots;
       names);
    inplane_reads = Hashtbl.length inplane_ids;
    no_shift = Array.make rank 0;
  }

let staging (f : per_kernel) (p : Plan.t) =
  let key = (p.placement, Plan.stream_dim p, p.retime, p.fold) in
  match Hashtbl.find_opt f.stagings key with
  | Some s -> s
  | None ->
    let s = make_staging f p in
    Hashtbl.replace f.stagings key s;
    s

let make_ctx (p : Plan.t) =
  let f = per_kernel p.kernel in
  let s = staging f p in
  let rank = Array.length p.kernel.domain in
  let geom = Launch.geometry p in
  let res = Estimate.resources p in
  let concurrent_blocks =
    min geom.total_blocks (max 1 (res.occupancy.blocks_per_sm * p.device.sms))
  in
  (* A dependence along a grid dimension leaves blocks on the same
     anti-diagonal free to run together, so the launch decomposes into
     [1 + sum (grid_d - 1)] wavefront phases over the dependent
     dimensions.  Bytes and flops are unchanged — only parallelism per
     phase drops (Timing's wavefront kernel class). *)
  let serial_waves =
    let waves = ref 1 in
    for d = 0 to rank - 1 do
      if f.dep_dims.(d) then waves := !waves + (geom.grid.(d) - 1)
    done;
    !waves
  in
  {
    plan = p; geom; bufs = s.bufs; res; stmts = s.stmts; loads = s.loads;
    global_arrays = s.global_arrays; inplane_reads = s.inplane_reads;
    concurrent_blocks; serial_waves; no_shift = s.no_shift;
  }

(* ------------------------------------------------------------------ *)
(* Box arithmetic                                                      *)
(* ------------------------------------------------------------------ *)

(* A box is (lo, hi) inclusive per dimension; empty when hi < lo. *)
type box = (int * int) array

let box_volume (b : box) =
  Array.fold_left (fun acc (lo, hi) -> if hi < lo then 0 else acc * (hi - lo + 1)) 1 b

let box_inter (a : box) (b : box) =
  Array.init (Array.length a) (fun d ->
      let alo, ahi = a.(d) and blo, bhi = b.(d) in
      (max alo blo, min ahi bhi))

(* The block's output tile as a box, clipped to the domain. *)
let tile_box ctx (block : int array) : box =
  Array.init ctx.geom.rank (fun d ->
      let lo = block.(d) * ctx.geom.tile.(d) in
      let hi = min (ctx.geom.domain.(d) - 1) (lo + ctx.geom.tile.(d) - 1) in
      (lo, hi))

(* Extend a box by an extent, clipping to the domain, into a
   caller-owned scratch box: the block executor calls this once per
   statement per block, so it must not allocate. *)
let extend_clip_into ctx (b : box) (e : An.extent) (out : box) =
  for d = 0 to ctx.geom.rank - 1 do
    let lo, hi = b.(d) in
    let elo, ehi = e.(d) in
    out.(d) <- (max 0 (lo + elo), min (ctx.geom.domain.(d) - 1) (hi + ehi))
  done

(* ------------------------------------------------------------------ *)
(* Per-block accounting over per-dimension class tables                *)
(* ------------------------------------------------------------------ *)

(* Every box a block's accounting looks at has, along dimension d, an
   interval that depends only on the block's coordinate along d: the
   tile, each load's staged box and its overlap with the tile, each
   statement's region (the tile extended, clipped and guarded) and that
   region's overlap with the tile.  A summation tabulates these
   intervals once per dimension and block class; evaluating a block
   copies its classes' intervals into flat lo/hi arrays and does all
   arithmetic there, in scratch the domain reuses, without allocating a
   box.

   Items of the flat arrays: 0 is the tile, [1 + 2l] and [2 + 2l] load
   [l]'s staged box and its overlap with the tile, [1 + 2L + 2s] and
   [2 + 2L + 2s] statement [s]'s region and its useful part (L loads).
   Item [k]'s interval along dimension [d] sits at [k * rank + d]. *)
type sum = {
  ctx : ctx;
  rank : int;
  segments : int array;
      (** per load: Output-perspective halo segments issued per staged
          row (0 when the load pays none) *)
  nitems : int;
  counts : int array array;  (** per dimension: blocks in each class *)
  tab : int array array;
      (** per dimension: class [c]'s item [k] spans
          [tab.((c * nitems + k) * 2)] .. [tab.((c * nitems + k) * 2 + 1)] *)
  lo : int array;  (** the block being evaluated *)
  hi : int array;
  (* launch constants *)
  halo_miss : float;
  l2_hit_floor : float;
  l2 : float;
  syncs : float;  (** [Launch.syncs_per_block] *)
  stream_dim : int option;
  tb_ext : int array;  (** per-side halo of the staged inputs, per dimension *)
  (* per-block scratch, reset by [eval] *)
  n_global : int;
  ulo : int array;  (** per global array: union of its shifted read boxes *)
  uhi : int array;
  uses : float array;
  read_any : bool array;
  seen_inplane : bool array;
  touched : (string, int) Hashtbl.t;
  order : int array;  (** [touched]'s slots in its iteration order *)
  (* the memo over class combinations, see [sum_classes] *)
  ids : int array array;  (** per dimension: each class's id *)
  nids : int array;  (** per dimension: number of distinct ids *)
  cur : int array;  (** per dimension: the class being summed *)
  memo : Counters.t array;  (** per id combination, mixed-radix: its [eval] *)
}

(* The arrays behind [tab], [lo], [hi] and the per-block scratch belong
   to the domain and are reused by every summation on it, grown on
   demand: a summation leaves no array behind for the major heap, however
   many items and classes it tabulates. *)
type workspace = {
  mutable w_tab : int array array;
  mutable w_lo : int array;
  mutable w_hi : int array;
  mutable w_ulo : int array;
  mutable w_uhi : int array;
  mutable w_uses : float array;
  mutable w_read_any : bool array;
  mutable w_seen_inplane : bool array;
  mutable w_order : int array;
  w_touched : (string, int) Hashtbl.t;
  mutable w_ids : int array array;
  mutable w_nids : int array;
  mutable w_cur : int array;
  mutable w_reps : int array;  (** per id: its first class, while numbering *)
  mutable w_memo : Counters.t array;
}

(* An empty memo slot, told apart by physical equality. *)
let unset = { Counters.zero with syncs = -1.0 }

let workspace =
  Domain.DLS.new_key (fun () ->
      {
        w_tab = [||]; w_lo = [||]; w_hi = [||]; w_ulo = [||]; w_uhi = [||];
        w_uses = [||]; w_read_any = [||]; w_seen_inplane = [||]; w_order = [||];
        w_touched = Hashtbl.create 8;
        w_ids = [||]; w_nids = [||]; w_cur = [||]; w_reps = [||]; w_memo = [||];
      })

(* [a] if it holds [n] elements, else a fresh array of at least [n]. *)
let grow a n x = if Array.length a >= n then a else Array.make (max n (2 * Array.length a)) x

let item_load l = 1 + (2 * l)
let item_stmt nl s = 1 + (2 * nl) + (2 * s)

(* Per-side halo of the staged inputs along each dimension: the width a
   temporal step grows the tile by. *)
let temporal_ext ctx =
  Array.init ctx.geom.rank (fun d ->
      List.fold_left
        (fun acc (buf : Launch.buffer) ->
          let lo, hi = buf.extent.(d) in
          max acc (max (-lo) hi))
        0 ctx.bufs)

(* Whether classes [a] and [b] of dimension table [t] look the same to
   [eval]: every item's interval relative to the tile start agrees; along
   the innermost dimension ([aligned]) the tile start agrees modulo a
   sector, which is all [sectors] sees of absolute positions; and the
   tile's distances to the two domain faces agree up to [cap], the
   farthest a temporal trapezoid reaches. *)
let same_class t ~nitems ~dmax ~aligned ~cap a b =
  let base_a = a * nitems * 2 and base_b = b * nitems * 2 in
  let tlo_a = t.(base_a) and tlo_b = t.(base_b) in
  let per = Coalesce.elems_per_sector ~elem_bytes in
  ((not aligned) || tlo_a mod per = tlo_b mod per)
  && min tlo_a cap = min tlo_b cap
  && min (dmax - t.(base_a + 1)) cap = min (dmax - t.(base_b + 1)) cap
  &&
  (let j = ref 0 in
   while !j < 2 * nitems && t.(base_a + !j) - tlo_a = t.(base_b + !j) - tlo_b do
     incr j
   done;
   !j = 2 * nitems)

(* Give each of the [ncls] classes just tabulated for dimension [d] an
   id, numbered in first-occurrence order: two classes share an id when
   [same_class] holds. *)
let number_classes ws d ~dmax ~nitems ~ncls ~aligned ~cap =
  let t = ws.w_tab.(d) in
  let ids = grow ws.w_ids.(d) ncls 0 in
  ws.w_ids.(d) <- ids;
  ws.w_reps <- grow ws.w_reps ncls 0;
  let n = ref 0 in
  for c = 0 to ncls - 1 do
    let i = ref 0 in
    while !i < !n && not (same_class t ~nitems ~dmax ~aligned ~cap ws.w_reps.(!i) c) do
      incr i
    done;
    if !i = !n then begin
      ws.w_reps.(!n) <- c;
      incr n
    end;
    ids.(c) <- !i
  done;
  ws.w_nids.(d) <- !n

(* Tabulate the intervals of every class; [classes.(d)] lists the
   (representative block coordinate, block count) of dimension [d]. *)
let make_sum ctx (classes : (int * int) list array) =
  let p = ctx.plan and g = ctx.geom in
  let rank = g.rank in
  let loads = ctx.loads and stmts = ctx.stmts in
  let nl = Array.length loads in
  let nitems = 1 + (2 * nl) + (2 * Array.length stmts) in
  let n_global = Array.length ctx.global_arrays in
  let tb_ext = temporal_ext ctx in
  let ws = Domain.DLS.get workspace in
  if Array.length ws.w_tab < rank then begin
    ws.w_tab <- Array.init rank (fun d -> if d < Array.length ws.w_tab then ws.w_tab.(d) else [||]);
    ws.w_ids <- Array.init rank (fun d -> if d < Array.length ws.w_ids then ws.w_ids.(d) else [||])
  end;
  ws.w_nids <- grow ws.w_nids rank 0;
  ws.w_cur <- grow ws.w_cur rank 0;
  ws.w_lo <- grow ws.w_lo (nitems * rank) 0;
  ws.w_hi <- grow ws.w_hi (nitems * rank) 0;
  ws.w_ulo <- grow ws.w_ulo (n_global * rank) 0;
  ws.w_uhi <- grow ws.w_uhi (n_global * rank) 0;
  ws.w_uses <- grow ws.w_uses n_global 0.0;
  ws.w_read_any <- grow ws.w_read_any n_global false;
  ws.w_seen_inplane <- grow ws.w_seen_inplane ctx.inplane_reads false;
  ws.w_order <- grow ws.w_order n_global 0;
  Array.iteri
    (fun d cls ->
      let t = grow ws.w_tab.(d) (List.length cls * nitems * 2) 0 in
      ws.w_tab.(d) <- t;
      let dmax = g.domain.(d) - 1 in
      List.iteri
        (fun c (rep, _) ->
          let set k lo hi =
            t.((c * nitems + k) * 2) <- lo;
            t.(((c * nitems + k) * 2) + 1) <- hi
          in
          let tlo = rep * g.tile.(d) in
          let thi = min dmax (tlo + g.tile.(d) - 1) in
          set 0 tlo thi;
          Array.iteri
            (fun l (ld : load) ->
              let elo, ehi = ld.buf.extent.(d) in
              let slo = max 0 (tlo + elo) and shi = min dmax (thi + ehi) in
              set (item_load l) slo shi;
              set (item_load l + 1) (max slo tlo) (min shi thi))
            loads;
          Array.iteri
            (fun s (sc : stmt_cost) ->
              let elo, ehi = sc.info.region_ext.(d) and glo, ghi = sc.guard.(d) in
              let rlo = max (max 0 (tlo + elo)) glo
              and rhi = min (min dmax (thi + ehi)) ghi in
              let k = item_stmt nl s in
              set k rlo rhi;
              set (k + 1) (max rlo tlo) (min rhi thi))
            stmts)
        cls;
      number_classes ws d ~dmax ~nitems ~ncls:(List.length cls)
        ~aligned:(d = rank - 1)
        ~cap:(if p.temporal.degree > 1 then p.temporal.degree * tb_ext.(d) else 0))
    classes;
  let combos = ref 1 in
  for d = 0 to rank - 1 do
    combos := !combos * ws.w_nids.(d)
  done;
  let combos = !combos in
  ws.w_memo <- grow ws.w_memo combos unset;
  Array.fill ws.w_memo 0 combos unset;
  {
    ctx; rank;
    segments =
      Array.map
        (fun (ld : load) ->
          (* Output perspective issues the x-halo of each staged row as
             separate narrow transactions (boundary threads re-load);
             input and mixed perspectives cover the whole input row with
             contiguous threads (Section III-B3). *)
          let lo_x, hi_x = ld.buf.extent.(rank - 1) in
          match p.perspective with
          | Plan.Output_persp when ld.staged && not (lo_x = 0 && hi_x = 0) ->
            (if lo_x < 0 then 1 else 0) + if hi_x > 0 then 1 else 0
          | Plan.Output_persp | Plan.Input_persp | Plan.Mixed_persp -> 0)
        loads;
    nitems;
    counts = Array.map (fun cls -> Array.of_list (List.map snd cls)) classes;
    tab = ws.w_tab;
    lo = ws.w_lo;
    hi = ws.w_hi;
    halo_miss = p.device.halo_miss;
    l2_hit_floor = p.device.l2_hit_floor;
    l2 = float_of_int p.device.l2_bytes;
    syncs = float_of_int (Launch.syncs_per_block p g ctx.bufs);
    stream_dim = Plan.stream_dim p;
    tb_ext;
    n_global;
    ulo = ws.w_ulo;
    uhi = ws.w_uhi;
    uses = ws.w_uses;
    read_any = ws.w_read_any;
    seen_inplane = ws.w_seen_inplane;
    touched = ws.w_touched;
    order = ws.w_order;
    ids = ws.w_ids;
    nids = ws.w_nids;
    cur = ws.w_cur;
    memo = ws.w_memo;
  }

(* Make class [c] of dimension [d] the current block's. *)
let select st d c =
  let t = st.tab.(d) in
  for k = 0 to st.nitems - 1 do
    st.lo.((k * st.rank) + d) <- t.((c * st.nitems + k) * 2);
    st.hi.((k * st.rank) + d) <- t.(((c * st.nitems + k) * 2) + 1)
  done

let volume st k =
  let v = ref 1 in
  for d = 0 to st.rank - 1 do
    let lo = st.lo.((k * st.rank) + d) and hi = st.hi.((k * st.rank) + d) in
    v := if hi < lo then 0 else !v * (hi - lo + 1)
  done;
  !v

(* The tile grown by [m] halo widths per side, clipped: the region a
   temporal step computes. *)
let trapezoid st m =
  let v = ref 1 in
  for d = 0 to st.rank - 1 do
    let lo = max 0 (st.lo.(d) - (m * st.tb_ext.(d)))
    and hi = min (st.ctx.geom.domain.(d) - 1) (st.hi.(d) + (m * st.tb_ext.(d))) in
    v := if hi < lo then 0 else !v * (hi - lo + 1)
  done;
  !v

(* 32-byte sectors to read/write item [k] translated by [shift] in an
   array with row-major [strides], row by row (runs along the innermost
   array dimension); no strides (not an array) costs nothing.  Arrays of
   lower rank than the domain are addressed by their own trailing
   dimensions. *)
let sectors st strides (shift : int array) k =
  match strides with
  | None -> 0
  | Some strides ->
    let r = st.rank in
    let arank = Array.length strides in
    let off = r - arank in
    let base = k * r in
    let width = st.hi.(base + r - 1) - st.lo.(base + r - 1) + 1 in
    if off < 0 || width <= 0 then 0
    else begin
      let rows = ref 1 in
      for d = off to r - 2 do
        let lo = st.lo.(base + d) and hi = st.hi.(base + d) in
        if hi < lo then rows := 0 else rows := !rows * (hi - lo + 1)
      done;
      if !rows = 0 then 0
      else begin
        (* Row alignment repeats with the array's x-stride; sample one
           row start per distinct alignment class instead of looping all
           rows (exact when the y-stride is sector-aligned, which holds
           for all power-of-two and 320-sized domains). *)
        let first_in_row = ref 0 in
        for d = off to r - 1 do
          first_in_row := !first_in_row + ((st.lo.(base + d) + shift.(d)) * strides.(d - off))
        done;
        let per = Coalesce.elems_per_sector ~elem_bytes in
        let ystride = if arank >= 2 then strides.(arank - 2) else 0 in
        if arank >= 2 && ystride mod per = 0 then
          !rows * Coalesce.run_sectors ~elem_bytes ~first:!first_in_row ~n:width
        else begin
          (* Misaligned rows: mix of the two possible sector counts. *)
          let s0 = Coalesce.run_sectors ~elem_bytes ~first:0 ~n:width in
          let s1 = Coalesce.run_sectors ~elem_bytes ~first:1 ~n:width in
          let even = (!rows + 1) / 2 in
          (even * s0) + ((!rows - even) * s1)
        end
      end
    end

(* Rows of item [k] across every dimension but the innermost. *)
let outer_rows st k =
  let rows = ref 1 in
  for d = 0 to st.rank - 2 do
    let lo = st.lo.((k * st.rank) + d) and hi = st.hi.((k * st.rank) + d) in
    if hi < lo then rows := 0 else rows := !rows * (hi - lo + 1)
  done;
  !rows

(** Counters charged to the current block.  Every addition to the load,
    store and shared counters is an integer-valued float far below 2^53,
    so a read charged once with its multiplicity sums exactly as its
    repeated occurrences did. *)
let eval st =
  let ctx = st.ctx and r = st.rank in
  let p = ctx.plan in
  let tile_pts = volume st 0 in
  if tile_pts = 0 then Counters.zero
  else begin
    let eb = float_of_int elem_bytes in
    let fl = ref 0.0 and ufl = ref 0.0 in
    let gld_elems = ref 0.0 and gst_elems = ref 0.0 in
    let gld_tx = ref 0.0 and gst_tx = ref 0.0 in
    let shm_ld = ref 0.0 and shm_st = ref 0.0 in
    (* Load- and store-side DRAM kept apart: temporal blocking scales them
       differently (inputs staged once per b steps, output stored once). *)
    let dram_ld = ref 0.0 and dram_st = ref 0.0 in
    (* --- staged loads (and fold members, loaded during their leader's
       staging pass): once per block.  The staged box is the tile
       extended by the array's read extent (planes load once per block
       when streaming, the full halo tile otherwise). --- *)
    for l = 0 to Array.length ctx.loads - 1 do
      let ld = ctx.loads.(l) in
      let k = item_load l in
      let v = float_of_int (volume st k) in
      gld_elems := !gld_elems +. v;
      let extra = if st.segments.(l) = 0 then 0 else outer_rows st k * st.segments.(l) in
      gld_tx := !gld_tx +. float_of_int (sectors st ld.lstrides ctx.no_shift k + extra);
      (* pointer-rotated window: each value enters shared once *)
      if ld.shared_store then shm_st := !shm_st +. v;
      (* staging-time folding combines *)
      if ld.fold_ops > 0 then fl := !fl +. (float_of_int ld.fold_ops *. v);
      (* DRAM: unique footprint; the halo share beyond the tile may be
         refetched by neighbours without hitting L2. *)
      let vt = float_of_int (volume st (k + 1)) in
      dram_ld := !dram_ld +. ((vt +. (st.halo_miss *. (v -. vt))) *. eb)
    done;
    (* --- per-statement compute and per-use traffic --- *)
    (* Unstaged reads: per globally read array, the union of its shifted
       read boxes and its total uses, for the L2 model below.  [touched]
       lists the arrays in first-read order; the L2 sum walks it, so the
       DRAM terms add up in one fixed order however reads merge. *)
    Array.fill st.uses 0 st.n_global 0.0;
    Array.fill st.read_any 0 st.n_global false;
    (* Retimed kernels read each incoming plane once per distinct in-plane
       offset, feeding every accumulator: dedupe across the whole body. *)
    Array.fill st.seen_inplane 0 st.ctx.inplane_reads false;
    Hashtbl.reset st.touched;
    for s = 0 to Array.length ctx.stmts - 1 do
      let sc = ctx.stmts.(s) in
      let si = sc.info in
      let k = item_stmt (Array.length ctx.loads) s in
      let n = volume st k in
      if n > 0 then begin
        let nf = float_of_int n in
        let nu = float_of_int (volume st (k + 1)) in
        fl := !fl +. (float_of_int (si.flops - sc.saved_flops) *. nf);
        ufl := !ufl +. (float_of_int si.flops *. nu);
        (match sc.store with
         | Store_none -> ()
         | Store_final strides ->
           gst_elems := !gst_elems +. nu;
           gst_tx := !gst_tx +. float_of_int (sectors st strides ctx.no_shift (k + 1));
           dram_st := !dram_st +. (nu *. eb)
         | Store_scratch -> shm_st := !shm_st +. nf
         | Store_global strides ->
           (* intermediate in global memory: redundant halo stores too *)
           gst_elems := !gst_elems +. nf;
           gst_tx := !gst_tx +. float_of_int (sectors st strides ctx.no_shift k);
           dram_st := !dram_st +. (nf *. eb));
        shm_ld := !shm_ld +. (float_of_int sc.shared_uses *. nf);
        for j = 0 to Array.length sc.shared_once - 1 do
          let id = sc.shared_once.(j) in
          if not st.seen_inplane.(id) then begin
            st.seen_inplane.(id) <- true;
            shm_ld := !shm_ld +. nf
          end
        done;
        for j = 0 to Array.length sc.groups - 1 do
          let g = sc.groups.(j) in
          let m = float_of_int g.uses in
          gld_elems := !gld_elems +. (m *. nf);
          let tx = ref 0 in
          for i = 0 to Array.length g.residue_uses - 1 do
            tx := !tx + (g.residue_uses.(i) * sectors st g.strides g.residue_off.(i) k)
          done;
          gld_tx := !gld_tx +. float_of_int !tx;
          let base = g.slot * r in
          let first = not st.read_any.(g.slot) in
          if first then begin
            st.read_any.(g.slot) <- true;
            Hashtbl.replace st.touched ctx.global_arrays.(g.slot) g.slot
          end;
          for d = 0 to r - 1 do
            let lo = st.lo.((k * r) + d) + g.off_lo.(d)
            and hi = st.hi.((k * r) + d) + g.off_hi.(d) in
            if first then begin
              st.ulo.(base + d) <- lo;
              st.uhi.(base + d) <- hi
            end
            else begin
              st.ulo.(base + d) <- min st.ulo.(base + d) lo;
              st.uhi.(base + d) <- max st.uhi.(base + d) hi
            end
          done;
          st.uses.(g.slot) <- st.uses.(g.slot) +. (m *. nf)
        done
      end
    done;
    (* --- L2 / DRAM model for unstaged reads --- *)
    let n_touched = Hashtbl.length st.touched in
    let i = ref 0 in
    Hashtbl.iter
      (fun _ slot ->
        st.order.(!i) <- slot;
        incr i)
      st.touched;
    for i = 0 to n_touched - 1 do
      let slot = st.order.(i) in
      let base = slot * r in
      let ubox_volume = ref 1 and inter_volume = ref 1 in
      for d = 0 to r - 1 do
        let lo = st.ulo.(base + d) and hi = st.uhi.(base + d) in
        ubox_volume := if hi < lo then 0 else !ubox_volume * (hi - lo + 1);
        let lo = max lo st.lo.(d) and hi = min hi st.hi.(d) in
        inter_volume := if hi < lo then 0 else !inter_volume * (hi - lo + 1)
      done;
      let unique = float_of_int !ubox_volume in
      let reuse = Float.max 0.0 (st.uses.(slot) -. unique) in
      (* working set: every concurrently resident block keeps its reuse
         window live in L2 *)
      let window_bytes =
        match st.stream_dim with
        | Some s ->
          (* live planes of this array per block *)
          let extent = st.uhi.(base + s) - st.ulo.(base + s) + 1 in
          let planes = float_of_int (min extent 9) in
          let slice = float_of_int !ubox_volume /. float_of_int (max 1 extent) in
          planes *. slice *. eb
        | None -> unique *. eb
      in
      let ws = float_of_int ctx.concurrent_blocks *. window_bytes in
      let miss =
        if ws <= st.l2 then st.l2_hit_floor else Float.min 1.0 ((ws -. st.l2) /. ws)
      in
      let vt = float_of_int !inter_volume in
      let halo_unique = Float.max 0.0 (unique -. vt) in
      dram_ld := !dram_ld +. ((vt +. (st.halo_miss *. halo_unique) +. (miss *. reuse)) *. eb)
    done;
    let syncs = ref st.syncs in
    let spill_scale = ref 1.0 in
    (* --- degree-N temporal blocking (AN5D): one launch covers [degree]
       inner time steps.  Compute repeats per step — inflated by the
       trapezoid halo volume under redundant recompute; inputs are staged
       once with the halo grown to degree x extent (recompute) or
       refreshed per step through a one-deep halo-ring exchange; the
       final output is stored once per launch. *)
    let tb = p.temporal in
    if tb.degree > 1 then begin
      let b = tb.degree in
      let tile_v = float_of_int (trapezoid st 0) in
      let flop_scale, load_scale, ring_elems =
        match tb.halo with
        | Plan.Halo_recompute ->
          (* step s computes tile + (b-s) x ext per side; the input is
             staged once with its halo grown to b x ext *)
          let sum = ref 0.0 in
          for s = 1 to b do
            sum := !sum +. (float_of_int (trapezoid st (b - s)) /. tile_v)
          done;
          (!sum, float_of_int (trapezoid st b) /. float_of_int (trapezoid st 1), 0.0)
        | Plan.Halo_exchange ->
          (* every step computes exactly the tile; each of the b-1
             intermediate steps exchanges the one-deep halo ring *)
          (float_of_int b, 1.0, float_of_int (b - 1) *. (float_of_int (trapezoid st 1) -. tile_v))
      in
      let ring_tx =
        ring_elems /. float_of_int (Coalesce.elems_per_sector ~elem_bytes)
      in
      fl := !fl *. flop_scale;
      ufl := !ufl *. float_of_int b;
      shm_ld := !shm_ld *. flop_scale;
      shm_st := !shm_st *. flop_scale;
      gld_elems := (!gld_elems *. load_scale) +. ring_elems;
      gld_tx := (!gld_tx *. load_scale) +. ring_tx;
      dram_ld := (!dram_ld *. load_scale) +. (ring_elems *. eb);
      gst_elems := !gst_elems +. ring_elems;
      gst_tx := !gst_tx +. ring_tx;
      dram_st := !dram_st +. (ring_elems *. eb);
      syncs := !syncs *. float_of_int b;
      spill_scale := flop_scale
    end;
    (* --- spills --- *)
    let spill =
      float_of_int ctx.res.spilled_doubles *. 16.0 *. float_of_int tile_pts *. !spill_scale
    in
    {
      Counters.useful_flops = !ufl;
      total_flops = !fl;
      dram_bytes = !dram_ld +. !dram_st;
      tex_bytes = (!gld_tx +. !gst_tx) *. 32.0;
      shm_bytes = (!shm_ld +. !shm_st) *. eb;
      gld_transactions = !gld_tx;
      gst_transactions = !gst_tx;
      shm_ld = !shm_ld;
      shm_st = !shm_st;
      spill_bytes = spill;
      syncs = !syncs;
      instructions =
        !fl +. ((!gld_elems +. !gst_elems +. !shm_ld +. !shm_st) *. 0.5);
    }
  end

(* Sum [eval] over every class combination, dimension 0 outermost, each
   scaled by its block count.  A combination whose class ids were seen
   before reuses that evaluation: same ids, same inputs to [eval], so the
   same counters, and the sum adds them in the same order. *)
let sum_classes ctx classes =
  let st = make_sum ctx classes in
  let acc = ref Counters.zero in
  let rec go d mult slot =
    if d = st.rank then begin
      let c = st.memo.(slot) in
      let c =
        if c != unset then c
        else begin
          for d = 0 to st.rank - 1 do
            select st d st.cur.(d)
          done;
          let c = eval st in
          st.memo.(slot) <- c;
          c
        end
      in
      acc := Counters.add !acc (Counters.scale (float_of_int mult) c)
    end
    else
      for c = 0 to Array.length st.counts.(d) - 1 do
        st.cur.(d) <- c;
        go (d + 1) (mult * st.counts.(d).(c)) ((slot * st.nids.(d)) + st.ids.(d).(c))
      done
  in
  go 0 1 0;
  !acc

let block_counters ctx (block : int array) =
  let st = make_sum ctx (Array.map (fun c -> [ (c, 1) ]) block) in
  for d = 0 to st.rank - 1 do
    select st d 0
  done;
  eval st

(* ------------------------------------------------------------------ *)
(* Whole-grid summation via block classes                              *)
(* ------------------------------------------------------------------ *)

(* Blocks fall into at most a few classes per dimension: boundary blocks
   individually, one representative for the identical middle. *)
let classes ctx =
  let g = ctx.geom in
  let r = g.rank in
  let tb_ext = temporal_ext ctx in
  (* Boundary influence width in blocks: how many blocks from each face
     see clipped regions (halo may span several tiles). *)
  let max_ext =
    Array.init r (fun d ->
        let from_ext (e : An.extent) =
          let lo, hi = e.(d) in
          max (-lo) hi
        in
        Array.fold_left
          (fun acc sc ->
            max acc (max (from_ext sc.info.region_ext) (from_ext sc.info.guard_ext)))
          tb_ext.(d) ctx.stmts)
  in
  (* Under halo recompute at degree b, step 1 computes the tile grown by
     b halo widths per side: blocks that close to a face see that
     trapezoid clipped.  Streamed plans with narrow tiles need the same
     widening, but it changes counters the tuner has priced them with
     (ROADMAP, open items), so only tiled plans get it here. *)
  let trapezoid_steps =
    match ctx.plan.temporal, ctx.plan.scheme with
    | { degree; halo = Plan.Halo_recompute; _ }, Plan.Tiled when degree > 1 -> degree
    | _ -> 0
  in
  let classes_of_dim d =
    let n = g.grid.(d) and t = g.tile.(d) in
    (* Boundary influence reaches one block beyond the halo span: a
       middle block's extended region can still hit the guard boundary
       when the last tile is partial, so be conservative. *)
    let w = 1 + (((2 * max_ext.(d)) + t - 1) / t) in
    let w_trapezoid =
      (((trapezoid_steps * tb_ext.(d)) + t - 1) / t)
      + if g.domain.(d) mod t = 0 then 0 else 1
    in
    let w = max w w_trapezoid in
    if n <= (2 * w) + 1 then List.init n (fun i -> (i, 1))
    else
      List.init w (fun i -> (i, 1))
      @ [ (w, n - (2 * w)) ]
      @ List.init w (fun i -> (n - w + i, 1))
  in
  Array.init r classes_of_dim

(* [exact] makes every block its own class. *)
let total_counters ?(exact = false) ctx =
  sum_classes ctx
    (if exact then Array.map (fun n -> List.init n (fun i -> (i, 1))) ctx.geom.grid
     else classes ctx)
