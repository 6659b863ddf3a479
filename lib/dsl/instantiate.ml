(* Instantiation binds a stencil definition to its call-site actuals,
   producing a concrete [kernel]: the unit all later phases (analysis,
   lowering, execution, tuning) operate on.  [Check.check_all] rejects
   every program [fail] could fire on, so reaching it means the program
   was never checked. *)

open Ast

let fail fmt =
  Format.kasprintf (fun s -> invalid_arg ("Instantiate (unchecked program): " ^ s)) fmt

(** A stencil call bound to concrete arrays with resolved extents. *)
type kernel = {
  kname : string;
  body : stmt list;  (** statements over concrete array/scalar names *)
  iters : string list;  (** iterators, outermost (slowest) first *)
  domain : int array;  (** iteration-space extents, one per iterator *)
  arrays : (string * int array) list;  (** concrete arrays with extents *)
  scalars : string list;  (** runtime scalar arguments *)
  assign : (string * placement) list;  (** user resource requests, concrete names *)
  pragma : pragma;
}

let resolve_dim params = function
  | Dconst c -> c
  | Dparam p -> (
    match List.assoc_opt p params with
    | Some v -> v
    | None -> fail "unresolved size parameter %s" p)

let array_dims prog name =
  List.find_map
    (function
      | Array_decl (n, dims) when n = name ->
        Some (Array.of_list (List.map (resolve_dim prog.params) dims))
      | Array_decl _ | Scalar_decl _ -> None)
    prog.decls

(** Arrays written by a statement list. *)
let outputs_of_body body =
  List.filter_map written_array body |> List.sort_uniq compare

(** Names read as arrays in a statement list (excluding temporaries). *)
let read_arrays_of_body body =
  List.concat_map (fun st -> fold_stmt_exprs (fun acc e -> reads_of_expr e @ acc) [] st) body
  |> List.map fst
  |> List.sort_uniq compare

(** [bind prog stencil actuals] substitutes actuals for formals and
    resolves array extents and the iteration domain.

    The iteration domain is taken from the highest-rank output array: the
    kernel updates each interior point of that array once per sweep.
    @param override_domain use the given extents instead (used when fusing
    kernels whose outputs have different logical sizes). *)
let bind ?override_domain (prog : program) (s : stencil_def) (actuals : string list) =
  if List.length actuals <> List.length s.formals then
    fail "stencil %s: arity mismatch" s.sname;
  let mapping = List.combine s.formals actuals in
  let body = List.map (subst_stmt mapping) s.body in
  let arrays =
    List.filter_map
      (fun name ->
        match array_dims prog name with
        | Some dims -> Some (name, dims)
        | None -> None)
      (List.sort_uniq compare (outputs_of_body body @ read_arrays_of_body body))
  in
  let scalars =
    List.filter (fun a -> not (List.mem_assoc a arrays)) actuals |> List.sort_uniq compare
  in
  let domain =
    match override_domain with
    | Some d -> d
    | None -> (
      let out_dims =
        outputs_of_body body
        |> List.filter_map (fun o -> List.assoc_opt o arrays)
      in
      match List.sort (fun a b -> compare (Array.length b) (Array.length a)) out_dims with
      | d :: _ -> d
      | [] -> fail "stencil %s writes no array" s.sname)
  in
  let rank = Array.length domain in
  let iters =
    (* The domain covers the innermost [rank] iterators. *)
    let all = List.length prog.iters in
    if rank > all then fail "stencil %s: output rank exceeds iterator count" s.sname;
    List.filteri (fun i _ -> i >= all - rank) prog.iters
  in
  let assign =
    List.concat_map
      (fun (pl, names) ->
        List.map
          (fun n ->
            match List.assoc_opt n mapping with
            | Some concrete -> (concrete, pl)
            | None -> fail "stencil %s: #assign of non-formal %s" s.sname n)
          names)
      s.assign
  in
  {
    kname = s.sname;
    body;
    iters;
    domain;
    arrays;
    scalars;
    assign;
    pragma = s.pragma;
  }

let find_stencil prog name =
  match List.find_opt (fun s -> s.sname = name) prog.stencils with
  | Some s -> s
  | None -> fail "undefined stencil %s" name

(** One step of the host schedule after instantiation. *)
type sched_item =
  | Launch of kernel
  | Exchange of string * string
  | Repeat of int * sched_item list

(** Instantiate the whole host portion of a program. *)
let schedule (prog : program) =
  let of_app = function
    | Apply (f, actuals) -> Launch (bind prog (find_stencil prog f) actuals)
    | Swap (a, b) -> Exchange (a, b)
  in
  List.map
    (function
      | Run app -> of_app app
      | Iterate (n, apps) -> Repeat (n, List.map of_app apps))
    prog.main

(** Distinct kernels of a schedule, by name, in first-launch order
    (time loops walked once). *)
let kernels items =
  let seen = Hashtbl.create 8 in
  let rec walk acc = function
    | [] -> acc
    | Launch k :: rest when not (Hashtbl.mem seen k.kname) ->
      Hashtbl.add seen k.kname ();
      walk (k :: acc) rest
    | (Launch _ | Exchange _) :: rest -> walk acc rest
    | Repeat (_, sub) :: rest -> walk (walk acc sub) rest
  in
  List.rev (walk [] items)

(** Total number of kernel launches a schedule performs. *)
let rec launch_count items =
  List.fold_left
    (fun acc item ->
      match item with
      | Launch _ -> acc + 1
      | Exchange _ -> acc
      | Repeat (n, sub) -> acc + (n * launch_count sub))
    0 items
