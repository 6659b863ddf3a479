(* Block-level execution of a kernel plan over simulated global memory.

   Values: each thread block sweeps the statements of the (possibly fused)
   body over its output tile extended by the per-statement recomputation
   halo — exactly the redundant work overlapped tiling performs.  Guards
   are the same in-bounds checks the reference executor applies, so a
   valid plan produces bit-identical final outputs.

   Temporaries and shared-staged intermediates live in scratch grids that
   blocks recompute redundantly; because every such value is a pure
   function of the kernel inputs, overlapping blocks write identical
   values and the scratch can be shared across blocks.  (Validation
   rejects bodies whose intermediates start with an accumulation, the one
   pattern where re-execution would double-count.)

   The executor computes values only: a launch's counters are
   [Traffic]'s, read through [Analytic.measure] without executing. *)

module A = Artemis_dsl.Ast
module Static = Artemis_static.Static
module Plan = Artemis_ir.Plan
module Launch = Artemis_ir.Launch
module Kernel_facts = Artemis_ir.Kernel_facts
module Validate = Artemis_ir.Validate
module Trace = Artemis_obs.Trace
module Journal = Artemis_obs.Journal
module Json = Artemis_obs.Json

exception Unsupported of string

(* Reject bodies where an intermediate's first write is an accumulation:
   overlapped re-execution would not be idempotent. *)
let check_idempotent (k : Artemis_dsl.Instantiate.kernel) =
  let first_write = Hashtbl.create 8 in
  List.iter
    (fun st ->
      match A.written_array st with
      | Some a ->
        if not (Hashtbl.mem first_write a) then
          Hashtbl.replace first_write a
            (match st with A.Accum _ -> `Accum | A.Assign _ | A.Decl_temp _ -> `Assign)
      | None -> ())
    k.body;
  List.iter
    (fun a ->
      match Hashtbl.find_opt first_write a with
      | Some `Accum ->
        raise
          (Unsupported
             (Printf.sprintf
                "intermediate %s first written by '+='; overlapped tiling cannot \
                 re-execute it idempotently" a))
      | Some `Assign | None -> ())
    (Kernel_facts.of_kernel k).intermediates

(* One launch of [plan] at temporal degree 1 (the pre-blocking executor);
   [run] below dispatches blocked plans onto it or onto the streamed
   traversal. *)
let run_plain ~schedule (plan : Plan.t) (store : Reference.store) ~scalars =
  check_idempotent plan.kernel;
  let ctx = Traffic.make_ctx plan in
  let k = plan.kernel in
  let rank = ctx.geom.rank in
  let facts = Kernel_facts.of_kernel k in
  let inter = facts.intermediates and finals = facts.final_outputs in
  (* Scratch for temporaries and shared-staged intermediates: full-domain
     grids, zero-initialized once; blocks recompute pure values in place. *)
  let scratch : (string, Grid.t) Hashtbl.t = Hashtbl.create 8 in
  let scratch_for name =
    match Hashtbl.find_opt scratch name with
    | Some g -> g
    | None ->
      (* An intermediate backed by a store array inherits its contents:
         points a sweep's guard skips keep their previous values, exactly
         as the reference's whole-array sweeps leave them. *)
      let g =
        match Hashtbl.find_opt store name with
        | Some backing when List.mem_assoc name k.arrays -> Grid.copy backing
        | Some _ | None -> Grid.create k.domain
      in
      Hashtbl.replace scratch name g;
      g
  in
  let overlay : (string, Grid.t) Hashtbl.t = Hashtbl.create 4 in
  let global_array name =
    match Hashtbl.find_opt store name with
    | Some g -> g
    | None -> (
      match Hashtbl.find_opt overlay name with
      | Some g -> g
      | None -> (
        match List.assoc_opt name k.arrays with
        | Some dims ->
          let g = Grid.create dims in
          Hashtbl.replace overlay name g;
          g
        | None -> Reference.find_array store name))
  in
  let inter_in_global name =
    match List.find_opt (fun (b : Launch.buffer) -> b.array = name) ctx.bufs with
    | Some b -> (
      match b.staging with
      | Launch.Stage_global -> true
      | Launch.Stage_const | Launch.Stage_tile _ | Launch.Stage_stream _
      | Launch.Stage_fold_member _ -> false)
    | None -> true
  in
  let scalar_value s =
    match List.assoc_opt s scalars with
    | Some v -> v
    | None -> invalid_arg ("Kernel_exec: unbound scalar " ^ s)
  in
  let binder =
    {
      Eval.bind_array =
        (fun a ->
          if Hashtbl.mem scratch a then Hashtbl.find scratch a
          else global_array a);
      bind_temp =
        (fun t ->
          match Hashtbl.find_opt scratch t with
          | Some g when not (List.mem_assoc t k.arrays) -> Some g
          | Some _ | None -> None);
      bind_scalar = scalar_value;
      binder_iters = k.iters;
    }
  in
  (* Arrays updated in place by a self-dependent statement (Gauss-Seidel
     sweeps).  They are "intermediates" by the written-and-read test, but
     the overlapped-recompute protocol is unsound for them — re-executing
     a halo point applies the non-idempotent update twice — and a staged
     snapshot would freeze the very values the dependence flows through.
     Each is owned by its tile (region clipped like a final) and bound to
     the live global array for both reads and writes. *)
  let self_dep_arrays =
    List.filter_map
      (fun st ->
        match Static.self_dependences ~iters:k.iters st with
        | Static.No_dep -> None
        | Static.Uniform _ | Static.Unknown -> A.written_array st)
      k.body
    |> List.sort_uniq compare
  in
  let self_dep a = List.mem a self_dep_arrays in
  (* Pre-create scratch for temps and shared intermediates so lookups during
     evaluation resolve to scratch, not stale store contents. *)
  List.iter
    (fun st ->
      match st with
      | A.Decl_temp (n, _) -> ignore (scratch_for n)
      | A.Assign (a, _, _) | A.Accum (a, _, _) ->
        if List.mem a inter && not (inter_in_global a) && not (self_dep a) then
          ignore (scratch_for a))
    k.body;
  (* Compile every statement once for the whole launch — all bindings are
     stable after the pre-create pass, and the block loop re-sweeps the
     same closures (and, for a wavefront statement, the same row
     instances) over each tile. *)
  let identity_idx = List.map (fun it -> A.index ~iter:it 0) k.iters in
  let compiled_stmts =
    List.map
      (fun (si : Traffic.stmt_info) ->
        let target, is_final, idx, e, accum =
          match si.stmt with
          | A.Decl_temp (n, e) ->
            (* A temp writes at the iteration point itself — an identity
               index on a domain-shaped grid, never out of bounds. *)
            (scratch_for n, false, identity_idx, e, false)
          | A.Assign (a, idx, e) ->
            let target =
              if List.mem a finals || inter_in_global a || self_dep a then
                global_array a
              else scratch_for a
            in
            (target, List.mem a finals || self_dep a, idx, e, false)
          | A.Accum (a, idx, e) ->
            let target =
              if List.mem a finals || inter_in_global a || self_dep a then
                global_array a
              else scratch_for a
            in
            (target, List.mem a finals || self_dep a, idx, e, true)
        in
        ( si, is_final, Reference.compile_sweep ~schedule binder ~target ~accum idx e,
          Array.make rank (0, 0) (* the swept region, reused per block *) ))
      (Array.to_list (Array.map (fun (sc : Traffic.stmt_cost) -> sc.info) ctx.stmts))
  in
  let exec_block (block : int array) =
    let tile = Traffic.tile_box ctx block in
    if Traffic.box_volume tile > 0 then
      List.iter
        (fun ((si : Traffic.stmt_info), is_final, sweep, region) ->
          Traffic.extend_clip_into ctx tile si.region_ext region;
          (* Finals (and self-dependent updates, whose re-execution is
             not idempotent) are only stored by the owning block:
             restrict the swept region to the tile up front — at points
             outside it the old per-point [owned] test made the
             statement a no-op. *)
          if is_final then
            for d = 0 to rank - 1 do
              let lo, hi = region.(d) and tlo, thi = tile.(d) in
              region.(d) <- (max lo tlo, min hi thi)
            done;
          sweep region)
        compiled_stmts
  in
  (* Global intermediates: redundant halo stores mean later blocks rewrite
     the same pure values — harmless, as in the real generated code. *)
  let split = schedule <> Eval.Interpret in
  Trace.with_span "exec.kernel"
    ~attrs:[ ("kernel", Trace.Str k.kname); ("split", Trace.Bool split) ]
  @@ fun () ->
  let block = Array.make rank 0 in
  let rec launch d =
    if d = rank then exec_block (Array.copy block)
    else
      for c = 0 to ctx.geom.grid.(d) - 1 do
        block.(d) <- c;
        launch (d + 1)
      done
  in
  (* With the journal on, each launch records how many points took the
     unguarded interior fast path, the wavefront rows or the guarded
     fallback, and how many it skipped — the observable effect of loop
     splitting, per launch rather than as a global counter delta. *)
  if Journal.enabled () then begin
    let (), tally = Region.with_tally (fun () -> launch 0) in
    Journal.append "exec.split"
      [ ("kernel", Json.Str k.kname); ("executor", Json.Str "blocks");
        ("split", Json.Bool split);
        ("interior_points", Json.Float tally.t_interior);
        ("wavefront_points", Json.Float tally.t_wavefront);
        ("guarded_points", Json.Float tally.t_guarded);
        ("eliminated_points", Json.Float tally.t_eliminated) ]
  end
  else launch 0

(* ------------------------------------------------------------------ *)
(* Degree-N temporal blocking                                          *)
(* ------------------------------------------------------------------ *)

let exchange (store : Reference.store) a b =
  let ga = Reference.find_array store a and gb = Reference.find_array store b in
  Hashtbl.replace store a gb;
  Hashtbl.replace store b ga

(* Streamed interleaved traversal (AN5D): one front sweeps the outer
   dimension while all [degree] inner time steps advance in a skewed
   pipeline — when the front is at [z], step [s] computes plane
   [z - (s-1)*skew], reading the opposite-parity physical buffer.
   Processing steps in increasing [s] per front makes every read
   available exactly when needed, and overwritten planes are never read
   again.  Each statement sweeps a plane as the executors sweep a
   region ([Reference.compile_sweep]): the plane's in-bounds box in
   flat rows, the guard-failing rest skipped, so those points retain
   the stale contents of the written physical buffer.  Bit-identical
   to the per-step composition [(launch; exchange)^(degree-1);
   launch]. *)
let run_streamed ~schedule (plan : Plan.t) (store : Reference.store) ~scalars
    ~out ~inp =
  let k = plan.Plan.kernel in
  let b = plan.temporal.degree in
  let skew = Artemis_fuse.Fusion.stream_skew k in
  let rank = Array.length k.domain in
  let zdim = k.domain.(0) in
  (* Physical buffers by step parity: odd steps write [phys.(1)] (the
     grid named [out] on entry), even steps write [phys.(0)]. *)
  let phys = [| Reference.find_array store inp; Reference.find_array store out |] in
  let temps : (string, Grid.t) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (function
      | A.Decl_temp (n, _) -> Hashtbl.replace temps n (Grid.create k.domain)
      | A.Assign _ | A.Accum _ -> ())
    k.body;
  let scalar_value s =
    match List.assoc_opt s scalars with
    | Some v -> v
    | None -> invalid_arg ("Kernel_exec: unbound scalar " ^ s)
  in
  let identity_idx = List.map (fun it -> A.index ~iter:it 0) k.iters in
  (* One compiled statement list per step parity (the two buffer roles). *)
  let compile_for parity =
    let read = phys.(1 - parity) and write = phys.(parity) in
    let binder =
      {
        Eval.bind_array =
          (fun a ->
            if a = inp then read
            else if a = out then write
            else
              match Hashtbl.find_opt temps a with
              | Some g -> g
              | None -> Reference.find_array store a);
        bind_temp = (fun t -> Hashtbl.find_opt temps t);
        bind_scalar = scalar_value;
        binder_iters = k.iters;
      }
    in
    List.map
      (fun st ->
        match st with
        | A.Decl_temp (n, e) ->
          let g = Hashtbl.find temps n in
          (Some g, Reference.compile_sweep ~schedule binder ~target:g ~accum:false identity_idx e)
        | A.Assign (_, idx, e) ->
          (* stream_legal: the single array assign writes [out] *)
          (None, Reference.compile_sweep ~schedule binder ~target:write ~accum:false idx e)
        | A.Accum _ -> raise (Unsupported "streamed traversal on an accumulation"))
      k.body
  in
  let by_parity = [| compile_for 0; compile_for 1 |] in
  (* Zeroing a temp's front plane before its sweep reproduces the fresh
     per-launch temp grids of the per-step composition: points the sweep
     skips read back 0.0, never a previous step's value. *)
  let zero_plane (g : Grid.t) z =
    let plane = g.strides.(0) in
    Array.fill g.data (z * plane) plane 0.0
  in
  let region = Array.init rank (fun d -> (0, k.domain.(d) - 1)) in
  for front = 0 to zdim - 1 + ((b - 1) * skew) do
    for s = 1 to b do
      let z = front - ((s - 1) * skew) in
      if z >= 0 && z < zdim then begin
        region.(0) <- (z, z);
        List.iter
          (fun (temp_g, sweep) ->
            (match temp_g with Some g -> zero_plane g z | None -> ());
            sweep region)
          by_parity.(s mod 2)
      end
    done
  done;
  (* The composition ends without a final exchange (hoisted to the
     schedule's swap): at even degree the names have net-swapped an odd
     number of times, so mirror that in the store. *)
  if (b - 1) mod 2 = 1 then exchange store out inp

(** Execute [plan] on the arrays in [store], updating final outputs (and
    global-placed intermediates) in place.  A temporally blocked plan
    ([Plan.temporal.degree > 1]) executes [degree] time steps of its
    ping-pong pair per launch — through the streamed interleaved
    traversal when the body admits it, otherwise the exact per-step
    composition, whose degree-1 launches need no more on-chip space than
    [valid].  [schedule] picks how statements sweep. *)
let run ?(schedule = Eval.Rows) (valid : Validate.valid)
    (store : Reference.store) ~scalars =
  let plan = (valid :> Plan.t) in
  let tb = plan.Plan.temporal in
  if tb.degree <= 1 then run_plain ~schedule plan store ~scalars
  else begin
    let out, inp =
      match tb.pair with
      | Some pair -> pair
      | None -> assert false (* [Validate.Bad_degree] *)
    in
    let p1 = { plan with Plan.temporal = Plan.no_temporal } in
    let streamed = Artemis_fuse.Fusion.stream_legal plan.kernel ~out ~inp in
    Trace.with_span "exec.temporal"
      ~attrs:
        [ ("kernel", Trace.Str plan.kernel.kname);
          ("degree", Trace.Int tb.degree);
          ("streamed", Trace.Bool streamed) ]
    @@ fun () ->
    if streamed then run_streamed ~schedule plan store ~scalars ~out ~inp
    else begin
      (* exact fallback: [(launch; exchange)^(degree-1); launch] *)
      for _ = 1 to tb.degree - 1 do
        run_plain ~schedule p1 store ~scalars;
        exchange store out inp
      done;
      run_plain ~schedule p1 store ~scalars
    end
  end
