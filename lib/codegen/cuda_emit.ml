(* CUDA C emission for a kernel plan.

   The paper's ARTEMIS emits CUDA which NVCC then compiles; in this
   reproduction the simulator stands in for the GPU, but the emitter still
   produces the concrete CUDA each plan denotes — for inspection, for
   golden tests, and to keep the lowering honest (every plan feature maps
   to a visible code construct: staging loads, plane rotation, prefetch
   registers, unrolled statement instances, guards, accumulators). *)

module A = Artemis_dsl.Ast
module An = Artemis_dsl.Analysis
module I = Artemis_dsl.Instantiate
module Plan = Artemis_ir.Plan
module Launch = Artemis_ir.Launch
module Estimate = Artemis_ir.Estimate

let buf = Buffer.create 4096
let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt

(* CUDA axis letter of a dimension index (slowest-first indexing: the last
   dimension is x). *)
let axis rank d =
  match rank - 1 - d with
  | 0 -> "x"
  | 1 -> "y"
  | _ -> "z"

let iter_name (k : I.kernel) d = List.nth k.iters d

(* Linearized global index expression of an access. *)
let global_index (k : I.kernel) name (idx : A.index list) =
  let dims = match List.assoc_opt name k.arrays with Some d -> d | None -> [||] in
  let arank = Array.length dims in
  let terms =
    List.mapi
      (fun d (i : A.index) ->
        let base =
          match i.iter with
          | Some it -> if i.shift = 0 then it else Printf.sprintf "(%s%+d)" it i.shift
          | None -> string_of_int i.shift
        in
        let stride =
          let s = ref 1 in
          for dd = d + 1 to arank - 1 do
            s := !s * dims.(dd)
          done;
          !s
        in
        if stride = 1 then base else Printf.sprintf "%s*%d" base stride)
      idx
  in
  String.concat " + " terms

(* Shared-buffer index of an access (tile-local coordinates). *)
let shared_index (p : Plan.t) (k : I.kernel) (idx : A.index list) ~streamed =
  let rank = Array.length k.domain in
  let terms =
    List.filteri
      (fun d _ ->
        match Plan.stream_dim p with
        | Some s when streamed -> d <> s || rank <> List.length idx
        | _ -> true)
      idx
  in
  String.concat ""
    (List.map
       (fun (i : A.index) ->
         match i.iter with
         | Some it ->
           if i.shift = 0 then Printf.sprintf "[l%s]" it
           else Printf.sprintf "[l%s%+d]" it i.shift
         | None -> Printf.sprintf "[%d]" i.shift)
       terms)

let rec emit_expr (p : Plan.t) (k : I.kernel) bufs (e : A.expr) =
  let pr = emit_expr p k bufs in
  match e with
  | A.Const f ->
    if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
    else Printf.sprintf "%.17g" f
  | A.Scalar_ref s -> s
  | A.Access (name, idx) -> (
    let staged =
      List.find_opt (fun (b : Launch.buffer) -> b.array = name) bufs
    in
    match staged with
    | Some { staging = Launch.Stage_tile _; _ } ->
      Printf.sprintf "sh_%s%s" name (shared_index p k idx ~streamed:false)
    | Some { staging = Launch.Stage_stream { reg_planes; _ }; _ } -> (
      match Plan.stream_dim p with
      | Some s ->
        let soff =
          List.nth_opt idx s
          |> Option.map (fun (i : A.index) -> i.shift)
          |> Option.value ~default:0
        in
        if List.mem soff reg_planes && not p.retime then
          Printf.sprintf "%s_reg_%s" name
            (if soff = 0 then "c0" else if soff > 0 then Printf.sprintf "p%d" soff
             else Printf.sprintf "m%d" (-soff))
        else
          Printf.sprintf "sh_%s_%s%s" name
            (if soff = 0 then "c0" else if soff > 0 then Printf.sprintf "p%d" soff
             else Printf.sprintf "m%d" (-soff))
            (shared_index p k idx ~streamed:true)
      | None -> Printf.sprintf "%s[%s]" name (global_index k name idx))
    | Some { staging = Launch.Stage_fold_member leader; _ } ->
      Printf.sprintf "/*folded:%s*/ sh_%s%s" name leader (shared_index p k idx ~streamed:false)
    | _ -> Printf.sprintf "%s[%s]" name (global_index k name idx))
  | A.Neg e1 -> Printf.sprintf "-(%s)" (pr e1)
  | A.Bin (op, e1, e2) ->
    Printf.sprintf "(%s %s %s)" (pr e1) (A.binop_to_string op) (pr e2)
  | A.Call (f, args) ->
    Printf.sprintf "%s(%s)" f (String.concat ", " (List.map pr args))

let guard_condition (k : I.kernel) (gext : An.extent) =
  let rank = Array.length k.domain in
  let conds = ref [] in
  for d = 0 to rank - 1 do
    let lo, hi = gext.(d) in
    let it = iter_name k d in
    if lo < 0 then conds := Printf.sprintf "%s >= %d" it (-lo) :: !conds;
    if hi > 0 then conds := Printf.sprintf "%s <= N%d - %d" it d (hi + 1) :: !conds
  done;
  match !conds with
  | [] -> "1"
  | cs -> String.concat " && " (List.rev cs)

let emit_stmt (p : Plan.t) (k : I.kernel) bufs si_guard (st : A.stmt) =
  let guard = guard_condition k si_guard in
  let body =
    match st with
    | A.Decl_temp (n, e) ->
      Printf.sprintf "double %s = %s;" n (emit_expr p k bufs e)
    | A.Assign (a, idx, e) ->
      Printf.sprintf "%s[%s] = %s;" a (global_index k a idx) (emit_expr p k bufs e)
    | A.Accum (a, idx, e) ->
      Printf.sprintf "%s[%s] += %s;" a (global_index k a idx) (emit_expr p k bufs e)
  in
  if guard = "1" then line "    %s" body else line "    if (%s) %s" guard body

(** Emit the CUDA source (kernel + host launcher) of a plan. *)
let m_emissions = Artemis_obs.Metrics.counter "codegen.emissions"

let emit (p : Plan.t) =
  Artemis_obs.Trace.with_span "codegen.emit"
    ~attrs:[ ("kernel", Str p.kernel.kname); ("plan", Str (Plan.label p)) ]
  @@ fun () ->
  Artemis_obs.Metrics.incr m_emissions;
  Buffer.clear buf;
  let k = p.kernel in
  let rank = Array.length k.domain in
  let res = Estimate.resources p in
  let bufs = Launch.buffers p in
  line "// Generated by ARTEMIS (OCaml reproduction)";
  line "// plan: %s" (Plan.label p);
  line "// est. regs/thread: %d, shared/block: %d B, occupancy: %.3f"
    res.regs_per_thread res.shared_per_block res.occupancy.occupancy;
  line "#include <cuda_runtime.h>";
  line "";
  Array.iteri (fun d n -> line "#define N%d %d" d n) k.domain;
  line "";
  (* ---- kernel signature ---- *)
  let array_params =
    List.map
      (fun (name, _) ->
        let const =
          if List.mem name (Artemis_ir.Kernel_facts.of_kernel k).pure_inputs then
            "const double* __restrict__ "
          else "double* __restrict__ "
        in
        const ^ name)
      k.arrays
  in
  let scalar_params = List.map (fun s -> "double " ^ s) k.scalars in
  line "extern \"C\" __global__ void __launch_bounds__(%d, %d)"
    (Plan.threads_per_block p) (max 1 res.occupancy.blocks_per_sm);
  line "%s_kernel(%s)" k.kname (String.concat ", " (array_params @ scalar_params));
  line "{";
  (* ---- index setup ---- *)
  let stream = Plan.stream_dim p in
  for d = rank - 1 downto 0 do
    let it = iter_name k d in
    match stream with
    | Some s when s = d ->
      (match p.scheme with
       | Plan.Concurrent_stream (_, chunk) ->
         line "  int %s0 = blockIdx.%s * %d;  // concurrent stream chunk" it (axis rank d) chunk
       | _ -> line "  int %s0 = 0;  // serial stream over dim %d" it d)
    | _ ->
      line "  int %s0 = blockIdx.%s * %d;" it (axis rank d) (p.block.(d) * p.unroll.(d));
      line "  int l%s = threadIdx.%s;" it (axis rank d);
      if p.unroll.(d) > 1 && p.distribution = Plan.Blocked then
        line "  int %s = %s0 + l%s * %d;  // blocked unroll x%d" it it it p.unroll.(d)
          p.unroll.(d)
      else if p.unroll.(d) > 1 then
        line "  int %s = %s0 + l%s;  // cyclic unroll x%d" it it it p.unroll.(d)
      else line "  int %s = %s0 + l%s;" it it it
  done;
  (* ---- shared declarations ---- *)
  List.iter
    (fun (b : Launch.buffer) ->
      match b.staging with
      | Launch.Stage_tile { halo } ->
        let dims =
          List.init rank (fun d ->
              let lo, hi = halo.(d) in
              Printf.sprintf "[%d]" ((p.block.(d) * p.unroll.(d)) + (hi - lo)))
        in
        line "  __shared__ double sh_%s%s;" b.array (String.concat "" dims)
      | Launch.Stage_stream { shared_planes; reg_planes; halo } ->
        let dims =
          List.filteri (fun d _ -> stream <> Some d) (List.init rank Fun.id)
          |> List.map (fun d ->
                 let lo, hi = halo.(d) in
                 Printf.sprintf "[%d]" ((p.block.(d) * p.unroll.(d)) + (hi - lo)))
        in
        List.iter
          (fun s ->
            let tag =
              if s = 0 then "c0" else if s > 0 then Printf.sprintf "p%d" s
              else Printf.sprintf "m%d" (-s)
            in
            line "  __shared__ double sh_%s_%s%s;" b.array tag (String.concat "" dims))
          shared_planes;
        List.iter
          (fun s ->
            let tag =
              if s = 0 then "c0" else if s > 0 then Printf.sprintf "p%d" s
              else Printf.sprintf "m%d" (-s)
            in
            line "  double %s_reg_%s;" b.array tag)
          reg_planes;
        if p.prefetch then line "  double %s_pf;  // prefetch register" b.array
      | Launch.Stage_global | Launch.Stage_const | Launch.Stage_fold_member _ -> ())
    bufs;
  (* ---- body ---- *)
  let facts = Artemis_ir.Kernel_facts.of_kernel k in
  let body () = List.iter2 (fun st g -> emit_stmt p k bufs g st) k.body facts.guard_exts in
  (match stream with
   | Some s ->
     let it = iter_name k s in
     line "";
     line "  // cooperative load of the initial plane window elided for brevity";
     line "  for (int %s = %s0; %s < %s0 + %d; ++%s) {" it it it it
       (match p.scheme with
        | Plan.Concurrent_stream (_, chunk) -> chunk
        | _ -> k.domain.(s))
       it;
     line "    __syncthreads();";
     body ();
     line "    __syncthreads();";
     line "    // rotate plane window%s" (if p.prefetch then " (prefetched)" else "");
     List.iter
       (fun (b : Launch.buffer) ->
         match b.staging with
         | Launch.Stage_stream { shared_planes; _ } when shared_planes <> [] ->
           if p.prefetch then
             line "    sh_%s_c0[lj][li] = %s_pf; %s_pf = %s[/* next plane */];" b.array
               b.array b.array b.array
           else line "    sh_%s_c0[lj][li] = %s[/* next plane */];" b.array b.array
         | _ -> ())
       bufs;
     line "  }"
   | None ->
     line "";
     let any_shared =
       List.exists
         (fun (b : Launch.buffer) ->
           match b.staging with Launch.Stage_tile _ -> true | _ -> false)
         bufs
     in
     if any_shared then begin
       List.iter
         (fun (b : Launch.buffer) ->
           match b.staging with
           | Launch.Stage_tile _ ->
             line "  // cooperative halo load of %s into sh_%s" b.array b.array;
             line "  sh_%s[lk][lj][li] = %s[%s];" b.array b.array
               (global_index k b.array
                  (List.map (fun it -> { A.iter = Some it; shift = 0 }) k.iters))
           | _ -> ())
         bufs;
       line "  __syncthreads();"
     end;
     body ());
  line "}";
  line "";
  (* ---- host launcher ---- *)
  let g = Launch.geometry p in
  line "extern \"C\" void launch_%s(%s)" k.kname
    (String.concat ", " (array_params @ scalar_params));
  line "{";
  let grid_xyz =
    List.init (min rank 3) (fun i ->
        let d = rank - 1 - i in
        g.grid.(d))
  in
  let block_xyz =
    List.init (min rank 3) (fun i ->
        let d = rank - 1 - i in
        p.block.(d))
  in
  let dim3 l = String.concat ", " (List.map string_of_int l) in
  line "  dim3 grid(%s);" (dim3 grid_xyz);
  line "  dim3 block(%s);" (dim3 block_xyz);
  line "  %s_kernel<<<grid, block>>>(%s);" k.kname
    (String.concat ", " (List.map fst k.arrays @ k.scalars));
  line "}";
  Buffer.contents buf
