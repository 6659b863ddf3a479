(* Reference sequential executor: the semantic ground truth every
   generated plan must match.

   Kernel-body semantics: each statement is a whole-domain sweep executed
   in order (the stencil-DAG reading of multi-statement bodies, Figure 3);
   per-point temporaries are materialized as full grids so several later
   statements can consume them, exactly as the dependence graph implies.
   A statement executes at a point iff all its array reads and its write
   are in bounds — the same guard the generated CUDA emits — so boundary
   cells keep their previous contents. *)

module A = Artemis_dsl.Ast
module I = Artemis_dsl.Instantiate
module Trace = Artemis_obs.Trace

type store = (string, Grid.t) Hashtbl.t

let find_array (store : store) name =
  match Hashtbl.find_opt store name with
  | Some g -> g
  | None -> invalid_arg ("Reference: unbound array " ^ name)

(** Execute one kernel over the arrays in [store], with [scalars] giving
    runtime scalar values.  Kernel arrays absent from the store (the
    scratch intermediates of fused kernels) are materialized locally,
    zero-initialized.  [schedule] ({!Eval.schedule}) picks how each
    statement sweeps. *)
let run_kernel ?(schedule = Eval.default_schedule) (store : store) ~scalars
    (k : I.kernel) =
  let split = schedule <> Eval.Interpret in
  Trace.with_span "exec.reference_kernel"
    ~attrs:[ ("kernel", Trace.Str k.kname); ("split", Trace.Bool split) ]
  @@ fun () ->
  let temps : (string, Grid.t) Hashtbl.t = Hashtbl.create 8 in
  let overlay : (string, Grid.t) Hashtbl.t = Hashtbl.create 4 in
  let resolve_array a =
    match Hashtbl.find_opt store a with
    | Some g -> g
    | None -> (
      match Hashtbl.find_opt overlay a with
      | Some g -> g
      | None -> (
        match List.assoc_opt a k.arrays with
        | Some dims ->
          let g = Grid.create dims in
          Hashtbl.replace overlay a g;
          g
        | None -> invalid_arg ("Reference: unbound array " ^ a)))
  in
  let scalar_value s =
    match List.assoc_opt s scalars with
    | Some v -> v
    | None -> invalid_arg ("Reference: unbound scalar " ^ s)
  in
  let binder =
    {
      Eval.bind_array =
        (fun a ->
          match Hashtbl.find_opt temps a with
          | Some g -> g
          | None -> resolve_array a);
      bind_temp = (fun t -> Hashtbl.find_opt temps t);
      bind_scalar = scalar_value;
      binder_iters = k.iters;
    }
  in
  (* Each statement is compiled once against the bindings in force for
     its sweep; the temp grid is registered before compiling so the
     visibility rules match the interpreter exactly.

     Under a [Rows] schedule an order-independent statement sweeps its
     guaranteed-in-bounds interior through flat-index rows and pays the
     guard only on boundary shells, and a uniformly self-dependent one
     takes the wavefront schedule when enabled; otherwise the whole
     domain takes the guarded per-point path. *)
  let rank = Array.length k.domain in
  let domain_box = Region.of_dims k.domain in
  let point = Array.make (max rank 1) 0 in
  let identity_idx = List.map (fun it -> A.index ~iter:it 0) k.iters in
  let sweep_stmt ~accum target idx e =
    let make () = Eval.compile_stmt ~schedule binder ~target ~accum idx e in
    let sx = make () in
    match sx.Eval.sx_class with
    | Eval.Sc_split ss ->
      let interior = Eval.split_interior ss domain_box in
      Region.sweep ~point
        ~dead_shells:(Eval.elim_proven ~schedule ss ~region:domain_box ~interior)
        ~region:domain_box ~interior ~guarded:sx.sx_guarded ~row:sx.sx_row ()
    | Eval.Sc_wavefront (ss, vec) ->
      (* Rows of one wavefront are independent; each parallel band
         compiles its own instance (the closures reuse buffers). *)
      let make_exec () =
        let sx = make () in
        { Wavefront.we_guarded = sx.Eval.sx_guarded; we_row = sx.sx_row }
      in
      let interior = Eval.split_interior ss domain_box in
      Wavefront.sweep
        ~elide:(Eval.elim_proven ~schedule ss ~region:domain_box ~interior)
        (Wavefront.sweeper ~make_exec)
        ~region:domain_box ~interior ~vec
    | Eval.Sc_guarded ->
      Region.sweep_guarded ~point ~region:domain_box sx.sx_guarded
  in
  let run_sweep stmt =
    match stmt with
    | A.Decl_temp (name, e) ->
      let g = Grid.create k.domain in
      Hashtbl.replace temps name g;
      (* A temp writes the whole domain through an identity index — the
         same sweep with the write trivially in bounds. *)
      sweep_stmt ~accum:false g identity_idx e
    | A.Assign (a, idx, e) -> sweep_stmt ~accum:false (resolve_array a) idx e
    | A.Accum (a, idx, e) -> sweep_stmt ~accum:true (resolve_array a) idx e
  in
  if Artemis_obs.Journal.enabled () then begin
    let module Json = Artemis_obs.Json in
    let (), tally = Region.with_tally (fun () -> List.iter run_sweep k.body) in
    Artemis_obs.Journal.append "exec.split"
      [ ("kernel", Json.Str k.kname); ("executor", Json.Str "reference");
        ("split", Json.Bool split);
        ("interior_points", Json.Float tally.t_interior);
        ("halo_points", Json.Float tally.t_halo);
        ("wavefront_points", Json.Float tally.t_wavefront);
        ("guarded_points", Json.Float tally.t_guarded);
        ("eliminated_points", Json.Float tally.t_eliminated) ]
  end
  else List.iter run_sweep k.body

(** Execute a whole instantiated schedule (launches, swaps, time loops).
    Swaps exchange grid bindings, the ping-pong idiom of iterative
    stencils. *)
let rec run_schedule ?schedule (store : store) ~scalars items =
  List.iter
    (function
      | I.Launch k -> run_kernel ?schedule store ~scalars k
      | I.Exchange (a, b) ->
        let ga = find_array store a and gb = find_array store b in
        Hashtbl.replace store a gb;
        Hashtbl.replace store b ga
      | I.Repeat (n, sub) ->
        for _ = 1 to n do
          run_schedule ?schedule store ~scalars sub
        done)
    items

(** Build a store for a program: every declared array gets a grid filled
    with the deterministic test pattern; scalars get small values keyed by
    name so different scalars are distinguishable. *)
let store_of_program (prog : A.program) =
  let store : store = Hashtbl.create 16 in
  let seed = ref 0 in
  List.iter
    (function
      | A.Array_decl (name, _) ->
        incr seed;
        let dims =
          match I.array_dims prog name with
          | Some d -> d
          | None -> assert false
        in
        let g = Grid.create dims in
        Grid.init_pattern ~seed:!seed g;
        Hashtbl.replace store name g
      | A.Scalar_decl _ -> ())
    prog.decls;
  store

let scalars_of_program (prog : A.program) =
  let n = ref 0 in
  List.filter_map
    (function
      | A.Scalar_decl name ->
        incr n;
        Some (name, 0.31 +. (0.07 *. float_of_int !n))
      | A.Array_decl _ -> None)
    prog.decls
