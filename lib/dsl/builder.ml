(* Combinator API for constructing DSL programs programmatically.  The
   benchmark suite builds Table-I stencils with it; tests use it to avoid
   string round-trips. *)

open Ast

let c f = Const f
let s name = Scalar_ref name

(** [a3 name (dk, dj, di)] — 3-D access at offsets from the center point,
    using the canonical iterators [k], [j], [i]. *)
let a3 ?(iters = [ "k"; "j"; "i" ]) name (dk, dj, di) =
  match iters with
  | [ ik; ij; ii ] ->
    Access
      (name, [ { iter = Some ik; shift = dk };
               { iter = Some ij; shift = dj };
               { iter = Some ii; shift = di } ])
  | _ -> invalid_arg "a3: need exactly three iterators"

(** 1-D access along one iterator, e.g. SW4's stretching arrays [strx\[i\]]. *)
let a1 name iter shift = Access (name, [ { iter = Some iter; shift } ])

let ( + ) e1 e2 = Bin (Add, e1, e2)
let ( - ) e1 e2 = Bin (Sub, e1, e2)
let ( * ) e1 e2 = Bin (Mul, e1, e2)
let ( / ) e1 e2 = Bin (Div, e1, e2)

(** Balanced sum of a non-empty expression list. *)
let sum = function
  | [] -> invalid_arg "sum: empty"
  | e :: rest -> List.fold_left ( + ) e rest

let temp name e = Decl_temp (name, e)

let assign3 ?(iters = [ "k"; "j"; "i" ]) name e =
  match iters with
  | [ ik; ij; ii ] ->
    Assign
      (name, [ { iter = Some ik; shift = 0 };
               { iter = Some ij; shift = 0 };
               { iter = Some ii; shift = 0 } ], e)
  | _ -> invalid_arg "assign3: need exactly three iterators"

let accum3 ?(iters = [ "k"; "j"; "i" ]) name e =
  match assign3 ~iters name e with
  | Assign (a, idx, e) -> Accum (a, idx, e)
  | _ -> assert false

(** Stencil definition with defaults for optional pieces. *)
let stencil ?(assign = []) ?(pragma = empty_pragma) name formals body =
  { sname = name; formals; body; assign; pragma }

let array name dims = Array_decl (name, List.map (fun p -> Dparam p) dims)
let scalar name = Scalar_decl name

(** Assemble a program; [copyin]/[copyout] default to all declared names
    and all arrays written by [main] respectively. *)
let program ?(params = []) ?(iters = [ "k"; "j"; "i" ]) ~decls ?copyin ?copyout
    ~stencils ~main () =
  let names = List.map (function Array_decl (n, _) | Scalar_decl n -> n) decls in
  {
    params;
    iters;
    decls;
    copyin = (match copyin with Some l -> l | None -> names);
    stencils;
    main;
    copyout =
      (match copyout with
       | Some l -> l
       | None ->
         let written_by = function
           | Apply (f, actuals) -> (
             match List.find_opt (fun st -> st.sname = f) stencils with
             | None -> []
             | Some st ->
               let binding = List.combine st.formals actuals in
               List.filter_map
                 (fun stmt ->
                   Option.bind (written_array stmt) (fun w -> List.assoc_opt w binding))
                 st.body)
           | Swap _ -> []
         in
         List.concat_map
           (function
             | Run app -> written_by app
             | Iterate (_, apps) -> List.concat_map written_by apps)
           main
         |> List.sort_uniq compare);
  }

(** Build, check, and return a program; raises [Diagnostic.Rejected] if
    ill-formed, making the construction sites in the benchmark suite
    self-verifying. *)
let program_checked ?params ?iters ~decls ?copyin ?copyout ~stencils ~main () =
  let p = program ?params ?iters ~decls ?copyin ?copyout ~stencils ~main () in
  match Check.check_all p with [] -> p | ds -> raise (Diagnostic.Rejected ds)
