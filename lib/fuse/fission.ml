(* Kernel fission for register-constrained stencil DAGs (paper, Section
   VI-B, Figure 3).  From a monolithic kernel ARTEMIS generates:

   - maxfuse: the kernel as-is (all statements in one launch);
   - trivial-fission: one sub-kernel per distinct output array, carrying
     the backward slice of statements (temporaries replicate, as mux1..
     muz4 do in Figure 3);
   - recompute-fission: outputs packed greedily into sub-kernels while the
     merged recomputation halo stays within max(4, r), r the maximum
     stencil order of the statements.

   Candidates can be written back out as DSL specifications for the user
   to inspect and optimize. *)

module A = Artemis_dsl.Ast
module An = Artemis_dsl.Analysis
module I = Artemis_dsl.Instantiate
module Dg = Artemis_dsl.Depgraph

(* Restrict a kernel to a statement subset (given as node list in body
   order), recomputing its array/scalar sets. *)
let restrict (k : I.kernel) (nodes : Dg.node list) =
  let body = List.map (fun (n : Dg.node) -> n.stmt) nodes in
  let referenced =
    List.sort_uniq compare
      (List.concat_map
         (fun st ->
           (match A.written_array st with Some a -> [ a ] | None -> [])
           @ A.fold_stmt_exprs
               (fun acc e -> List.map fst (A.reads_of_expr e) @ acc)
               [] st)
         body)
  in
  let arrays = List.filter (fun (a, _) -> List.mem a referenced) k.arrays in
  let scalars =
    List.filter
      (fun s ->
        List.exists
          (fun st -> A.fold_stmt_exprs (fun acc e -> acc || List.mem s (A.scalars_of_expr e)) false st)
          body)
      k.scalars
  in
  { k with body; arrays; scalars }

(** The kernel unchanged, under its maxfuse role. *)
let maxfuse (k : I.kernel) = { k with kname = k.kname ^ "_maxfuse" }

(** One sub-kernel per distinct final output, each the backward slice of
    the statements producing it. *)
let trivial (k : I.kernel) =
  let g = Dg.build k.body in
  let outputs = Dg.output_nodes g k in
  (* Group sink nodes by the array they write: accumulation chains into
     one output stay together. *)
  let sinks_per_array =
    List.fold_left
      (fun acc id ->
        let a = g.nodes.(id).defines in
        match List.assoc_opt a acc with
        | Some ids -> (a, id :: ids) :: List.remove_assoc a acc
        | None -> (a, [ id ]) :: acc)
      [] outputs
    |> List.rev
  in
  (* Also include non-sink writes to the same array (Assign ... Accum). *)
  let all_writes a =
    Array.to_list g.nodes
    |> List.filter_map (fun (n : Dg.node) -> if n.defines = a then Some n.id else None)
  in
  List.mapi
    (fun i (a, _) ->
      let slice_ids =
        List.concat_map (fun id -> List.map (fun n -> n.Dg.id) (Dg.backward_slice g id))
          (all_writes a)
        |> List.sort_uniq compare
      in
      let nodes = List.map (fun id -> g.nodes.(id)) slice_ids in
      let sub = restrict k nodes in
      { sub with kname = Printf.sprintf "%s_%d" k.kname i })
    sinks_per_array

(* Spill-free check for a merged candidate: the paper's Section VI-B rule
   performs fission "such that there are no register spills and/or
   excessive recomputations". *)
let spill_free (sub : I.kernel) =
  let rank = Array.length sub.domain in
  let plan =
    {
      (Artemis_ir.Plan.default Artemis_gpu.Device.p100 sub) with
      Artemis_ir.Plan.scheme =
        (if rank >= 3 then Artemis_ir.Plan.Serial_stream 0 else Artemis_ir.Plan.Tiled);
      block = (if rank >= 3 then [| 1; 16; 16 |] else [| 16; 16 |]);
      max_regs = 255;
    }
  in
  (Artemis_ir.Estimate.resources plan).spilled_doubles = 0

(** Greedy recompute-bounded fission: pack output slices together while
    the merged kernel's recomputation halo stays within max(4, r) and the
    merged kernel still compiles spill-free. *)
let recompute (k : I.kernel) =
  let parts = trivial k in
  let order_bound =
    let r =
      List.fold_left (fun acc (sub : I.kernel) -> max acc (An.stencil_order sub)) 0 parts
    in
    max 4 r
  in
  let merge (a : I.kernel) (b : I.kernel) =
    let union_assoc xs ys =
      List.fold_left
        (fun acc (key, v) -> if List.mem_assoc key acc then acc else acc @ [ (key, v) ])
        xs ys
    in
    (* Shared slice statements (replicated temporaries) must not repeat. *)
    let body =
      List.fold_left
        (fun acc st -> if List.mem st acc then acc else acc @ [ st ])
        a.body b.body
    in
    {
      a with
      body;
      arrays = union_assoc a.arrays b.arrays;
      scalars = List.sort_uniq compare (a.scalars @ b.scalars);
    }
  in
  let rec pack groups = function
    | [] -> List.rev groups
    | part :: rest -> (
      match groups with
      | current :: done_ ->
        let candidate = merge current part in
        let halo = (Artemis_ir.Kernel_facts.of_kernel candidate).recompute_halo in
        if halo <= order_bound && spill_free candidate then
          pack (candidate :: done_) rest
        else pack (part :: current :: done_) rest
      | [] -> pack [ part ] rest)
  in
  pack [] parts
  |> List.mapi (fun i (sub : I.kernel) -> { sub with kname = Printf.sprintf "%s_rc%d" k.kname i })

(** Emit a fission candidate list as a DSL program (what ARTEMIS writes to
    disk for the user, Figure 3c).  Array extents become parameters; each
    sub-kernel becomes a stencil definition invoked once. *)
let to_dsl (k : I.kernel) (parts : I.kernel list) =
  let dim_params =
    (* Name distinct extents D0, D1, ... in order of first appearance. *)
    let seen = ref [] in
    List.iter
      (fun (_, dims) ->
        Array.iter (fun n -> if not (List.mem_assoc n !seen) then
                       seen := !seen @ [ (n, Printf.sprintf "D%d" (List.length !seen)) ])
          dims)
      k.arrays;
    !seen
  in
  let decls =
    List.map
      (fun (a, dims) ->
        A.Array_decl
          (a, Array.to_list dims |> List.map (fun n -> A.Dparam (List.assoc n dim_params))))
      k.arrays
    @ List.map (fun s -> A.Scalar_decl s) k.scalars
  in
  let stencils =
    List.map
      (fun (sub : I.kernel) ->
        {
          A.sname = sub.kname;
          formals = List.map fst sub.arrays @ sub.scalars;
          body = sub.body;
          assign = [];
          pragma = A.empty_pragma;
        })
      parts
  in
  {
    A.params = List.map (fun (n, p) -> (p, n)) dim_params;
    iters = k.iters;
    decls;
    copyin = List.map fst k.arrays @ k.scalars;
    stencils;
    main =
      List.map
        (fun (sub : I.kernel) ->
          A.Run (A.Apply (sub.kname, List.map fst sub.arrays @ sub.scalars)))
        parts;
    copyout =
      List.concat_map
        (fun (sub : I.kernel) -> (Artemis_ir.Kernel_facts.of_kernel sub).final_outputs)
        parts
      |> List.sort_uniq compare;
  }
