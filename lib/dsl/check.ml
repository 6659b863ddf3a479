(* Semantic checking for parsed DSL programs: name resolution, arity and
   dimensionality consistency, iterator discipline, extents, and the two
   rules instantiation relies on (every stencil writes an array; no
   output has more dimensions than there are iterators).  A program with
   no violations instantiates and launches at least one stencil: later
   phases may assume it is well-formed.

   The checker is written against an [emit] sink and collects every
   violation in traversal order.  After emitting, each site recovers
   locally (skips the dependent checks for that construct) so later,
   independent violations are still found. *)

open Ast

let find_dup names =
  let tbl = Hashtbl.create 16 in
  List.find_opt
    (fun n ->
      if Hashtbl.mem tbl n then true
      else begin
        Hashtbl.add tbl n ();
        false
      end)
    names

let decl_name = function
  | Array_decl (n, _) -> n
  | Scalar_decl n -> n

let array_rank prog name =
  List.find_map
    (function
      | Array_decl (n, dims) when n = name -> Some (List.length dims)
      | Array_decl _ | Scalar_decl _ -> None)
    prog.decls

(* The largest element count of one array: 2^53, the largest count the
   float-valued traffic and FLOP counters hold exactly. *)
let max_elements = 1 lsl 53

(* Math intrinsics accepted in stencil bodies, with their arity. *)
let intrinsics =
  [ ("sqrt", 1); ("fabs", 1); ("exp", 1); ("log", 1); ("sin", 1); ("cos", 1);
    ("min", 2); ("max", 2); ("pow", 2); ("fma", 3) ]

(* ------------------------------------------------------------------ *)
(* Stencil-body checking                                               *)
(* ------------------------------------------------------------------ *)

(* Inside a stencil body the free names are the formals; temporaries are
   introduced by [Decl_temp] and visible to subsequent statements.  Whether
   a formal is used as an array or a scalar must be consistent within the
   body; rank consistency is also enforced.  The concrete rank is only
   known at the call site, so here we record the rank implied by usage and
   [check_call] verifies it against the actual argument. *)

type usage = {
  mutable used_rank : int option;  (** None while only used as scalar *)
  mutable used_scalar : bool;
}

let check_indices ~emit prog sname usages name idx =
  (match List.assoc_opt name usages with
   | None -> emit (Printf.sprintf "stencil %s: unknown name %s" sname name)
   | Some u ->
     if u.used_scalar then
       emit (Printf.sprintf "stencil %s: %s used both as scalar and array" sname name)
     else (
       match u.used_rank with
       | None -> u.used_rank <- Some (List.length idx)
       | Some r ->
         if r <> List.length idx then
           emit
             (Printf.sprintf "stencil %s: %s accessed with rank %d and %d" sname name r
                (List.length idx))));
  (* Each index is [iterator + shift] or a constant; iterators must be
     declared and appear in declaration order within one access, each at
     most once. *)
  let rec check_order last = function
    | [] -> ()
    | { iter = None; _ } :: rest -> check_order last rest
    | { iter = Some it; _ } :: rest -> (
      match List.find_index (String.equal it) prog.iters with
      | None ->
        (* Undeclared iterator: report once and stop ordering this access. *)
        emit
          (Printf.sprintf "stencil %s: %s indexed by undeclared iterator %s" sname name
             it)
      | Some o ->
        if o <= last then
          emit
            (Printf.sprintf
               "stencil %s: iterators out of order (or repeated) in access to %s" sname
               name)
        else check_order o rest)
  in
  check_order (-1) idx

let check_body ~emit prog (s : stencil_def) =
  (match find_dup s.formals with
   | Some d -> emit (Printf.sprintf "stencil %s: duplicate formal %s" s.sname d)
   | None -> ());
  let usages = ref (List.map (fun f -> (f, { used_rank = None; used_scalar = false })) s.formals) in
  let mark_scalar name =
    match List.assoc_opt name !usages with
    | None -> emit (Printf.sprintf "stencil %s: unknown name %s" s.sname name)
    | Some u ->
      if u.used_rank <> None then
        emit (Printf.sprintf "stencil %s: %s used both as scalar and array" s.sname name)
      else u.used_scalar <- true
  in
  let write_ranks = ref [] in
  let rec check_expr e =
    match e with
    | Const _ -> ()
    | Scalar_ref n -> mark_scalar n
    | Access (a, idx) -> check_indices ~emit prog s.sname !usages a idx
    | Neg e1 -> check_expr e1
    | Bin (_, e1, e2) -> check_expr e1; check_expr e2
    | Call (f, args) ->
      (match List.assoc_opt f intrinsics with
       | None -> emit (Printf.sprintf "stencil %s: unknown function %s" s.sname f)
       | Some arity ->
         if arity <> List.length args then
           emit
             (Printf.sprintf "stencil %s: %s expects %d argument(s), got %d" s.sname f
                arity (List.length args)));
      List.iter check_expr args
  in
  List.iter
    (fun stmt ->
      match stmt with
      | Decl_temp (n, e) ->
        check_expr e;
        if List.mem_assoc n !usages then
          emit (Printf.sprintf "stencil %s: %s redefined" s.sname n);
        (* Record the temporary regardless so later uses don't cascade. *)
        usages := (n, { used_rank = None; used_scalar = true }) :: !usages
      | Assign (a, idx, e) | Accum (a, idx, e) ->
        write_ranks := List.length idx :: !write_ranks;
        check_indices ~emit prog s.sname !usages a idx;
        check_expr e)
    s.body;
  (* What instantiation relies on: the domain is the extent of the
     highest-rank written array, over that many innermost iterators. *)
  if !write_ranks = [] then emit (Printf.sprintf "stencil %s writes no array" s.sname)
  else if List.exists (fun r -> r > List.length prog.iters) !write_ranks then
    emit (Printf.sprintf "stencil %s: output rank exceeds iterator count" s.sname);
  (* #assign clauses must name formals. *)
  List.iter
    (fun (_, names) ->
      List.iter
        (fun n ->
          if not (List.mem n s.formals) then
            emit
              (Printf.sprintf "stencil %s: #assign names %s which is not a formal"
                 s.sname n))
        names)
    s.assign;
  (* Expose per-formal usage (rank) for call checking. *)
  List.filter_map
    (fun f ->
      match List.assoc_opt f !usages with
      | Some u -> Some (f, u.used_rank)
      | None -> None)
    s.formals

let check_call ~emit prog formal_ranks (s : stencil_def) actuals =
  if List.length actuals <> List.length s.formals then
    emit
      (Printf.sprintf "call to %s: expected %d arguments, got %d" s.sname
         (List.length s.formals) (List.length actuals))
  else
    List.iter2
      (fun formal actual ->
        match List.assoc_opt formal formal_ranks with
        | None | Some None ->
          (* Unused (or scalar-used) formals accept anything declared. *)
          ()
        | Some (Some r) -> (
          match array_rank prog actual with
          | Some ar when ar = r -> ()
          | Some ar ->
            emit
              (Printf.sprintf "call to %s: %s has rank %d but %s is used with rank %d"
                 s.sname actual ar formal r)
          | None ->
            emit
              (Printf.sprintf "call to %s: %s must be an array of rank %d" s.sname
                 actual r)))
      s.formals actuals

let check_gen ~emit (prog : program) =
  (match find_dup (List.map fst prog.params) with
   | Some d -> emit (Printf.sprintf "duplicate parameter %s" d)
   | None -> ());
  (match find_dup prog.iters with
   | Some d -> emit (Printf.sprintf "duplicate iterator %s" d)
   | None -> ());
  (match find_dup (List.map decl_name prog.decls) with
   | Some d -> emit (Printf.sprintf "duplicate declaration %s" d)
   | None -> ());
  (* Extents must reference declared parameters and be positive, and an
     array must hold at most [max_elements]. *)
  List.iter
    (function
      | Array_decl (a, dims) ->
        let extents =
          List.filter_map
            (function
              | Dconst c -> Some c
              | Dparam p ->
                let v = List.assoc_opt p prog.params in
                if v = None then
                  emit (Printf.sprintf "array %s sized by undeclared parameter %s" a p);
                v)
            dims
        in
        (* [count <= max_elements / n] keeps the running product exact. *)
        let rec fits count = function
          | [] -> true
          | n :: rest -> count <= max_elements / n && fits (count * n) rest
        in
        if List.exists (fun n -> n <= 0) extents then
          emit (Printf.sprintf "array %s has non-positive extent" a)
        else if not (fits 1 extents) then
          emit (Printf.sprintf "array %s has more than 2^53 elements" a)
      | Scalar_decl _ -> ())
    prog.decls;
  let declared n = List.exists (fun d -> decl_name d = n) prog.decls in
  List.iter
    (fun n -> if not (declared n) then emit (Printf.sprintf "copyin of undeclared %s" n))
    prog.copyin;
  List.iter
    (fun n -> if not (declared n) then emit (Printf.sprintf "copyout of undeclared %s" n))
    prog.copyout;
  (match find_dup (List.map (fun s -> s.sname) prog.stencils) with
   | Some d -> emit (Printf.sprintf "duplicate stencil %s" d)
   | None -> ());
  let ranks_by_stencil =
    List.map (fun s -> (s.sname, (s, check_body ~emit prog s))) prog.stencils
  in
  let launches = ref false in
  let check_app = function
    | Apply (f, actuals) -> (
      launches := true;
      match List.assoc_opt f ranks_by_stencil with
      | None -> emit (Printf.sprintf "call to undefined stencil %s" f)
      | Some (s, ranks) ->
        List.iter
          (fun a ->
            if not (declared a) then
              emit (Printf.sprintf "call to %s passes undeclared %s" f a))
          actuals;
        check_call ~emit prog ranks s actuals)
    | Swap (a, b) -> (
      let rank n =
        match array_rank prog n with
        | Some r -> Some r
        | None ->
          emit (Printf.sprintf "swap of non-array %s" n);
          None
      in
      match (rank a, rank b) with
      | Some ra, Some rb when ra <> rb ->
        emit (Printf.sprintf "swap of arrays with different ranks: %s, %s" a b)
      | _ -> ())
  in
  List.iter
    (function
      | Run app -> check_app app
      | Iterate (n, apps) ->
        if n < 0 then emit "negative iterate count";
        List.iter check_app apps)
    prog.main;
  if not !launches then emit "program launches no stencil"

let check_all (prog : program) =
  let acc = ref [] in
  check_gen
    ~emit:(fun message ->
      acc := { Diagnostic.phase = Semantic; line = None; message } :: !acc)
    prog;
  List.rev !acc
