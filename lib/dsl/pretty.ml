(* Pretty-printer for the DSL.  Output is valid DSL concrete syntax: the
   parser round-trips it, which the property tests rely on.  It is also used
   by the fission component to write out generated DSL specifications
   (paper, Section VI-B). *)

open Ast

let pp_index fmt { iter; shift } =
  match iter with
  | None -> Format.fprintf fmt "%d" shift
  | Some it ->
    if shift = 0 then Format.fprintf fmt "%s" it
    else if shift > 0 then Format.fprintf fmt "%s+%d" it shift
    else Format.fprintf fmt "%s-%d" it (-shift)

let pp_indices fmt idx = List.iter (fun i -> Format.fprintf fmt "[%a]" pp_index i) idx

(* Operator precedence levels used to parenthesize minimally:
   0 = additive, 1 = multiplicative, 2 = unary / atoms. *)
let prec_of = function
  | Add | Sub -> 0
  | Mul | Div -> 1

let rec pp_expr_prec level fmt e =
  match e with
  | Const f ->
    if Float.is_integer f && Float.abs f < 1e16 then Format.fprintf fmt "%.1f" f
    else Format.fprintf fmt "%.17g" f
  | Scalar_ref s -> Format.pp_print_string fmt s
  | Access (a, idx) -> Format.fprintf fmt "%s%a" a pp_indices idx
  | Neg e1 -> Format.fprintf fmt "-%a" (pp_expr_prec 2) e1
  | Bin (op, e1, e2) ->
    let p = prec_of op in
    let body fmt () =
      (* Right operand printed at [p + 1] because -, / are left-associative. *)
      Format.fprintf fmt "%a %s %a" (pp_expr_prec p) e1 (binop_to_string op)
        (pp_expr_prec (p + 1)) e2
    in
    if p < level then Format.fprintf fmt "(%a)" body () else body fmt ()
  | Call (f, args) ->
    Format.fprintf fmt "%s(%a)" f
      (Format.pp_print_list
         ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
         (pp_expr_prec 0))
      args

let pp_expr fmt e = pp_expr_prec 0 fmt e

let pp_stmt fmt = function
  | Decl_temp (n, e) -> Format.fprintf fmt "double %s = %a;" n pp_expr e
  | Assign (a, idx, e) -> Format.fprintf fmt "%s%a = %a;" a pp_indices idx pp_expr e
  | Accum (a, idx, e) -> Format.fprintf fmt "%s%a += %a;" a pp_indices idx pp_expr e

let pp_name_list fmt names =
  Format.pp_print_list
    ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
    Format.pp_print_string fmt names

let pp_pragma fmt (p : pragma) =
  let something =
    p.stream_dim <> None || p.block <> None || p.unroll <> [] || p.occupancy <> None
  in
  if something then begin
    Format.fprintf fmt "#pragma";
    (match p.stream_dim with
     | Some d -> Format.fprintf fmt " stream %s" d
     | None -> ());
    (match p.block with
     | Some dims ->
       Format.fprintf fmt " block (%a)"
         (Format.pp_print_list
            ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ",")
            Format.pp_print_int)
         dims
     | None -> ());
    List.iter (fun (it, f) -> Format.fprintf fmt " unroll %s=%d" it f) p.unroll;
    (match p.occupancy with
     | Some t -> Format.fprintf fmt " occupancy %g" t
     | None -> ());
    Format.fprintf fmt "@\n"
  end

let pp_assign_clause fmt (pl, names) =
  Format.fprintf fmt "%s (%a)" (placement_to_string pl) pp_name_list names

let pp_stencil fmt (s : stencil_def) =
  pp_pragma fmt s.pragma;
  Format.fprintf fmt "@[<v 2>stencil %s (%a) {" s.sname pp_name_list s.formals;
  if s.assign <> [] then
    Format.fprintf fmt "@\n#assign %a;"
      (Format.pp_print_list
         ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
         pp_assign_clause)
      s.assign;
  List.iter (fun st -> Format.fprintf fmt "@\n%a" pp_stmt st) s.body;
  Format.fprintf fmt "@]@\n}@\n"

let pp_dim fmt = function
  | Dparam p -> Format.pp_print_string fmt p
  | Dconst c -> Format.pp_print_int fmt c

let pp_decl fmt = function
  | Array_decl (a, dims) ->
    Format.fprintf fmt "%s[%a]" a
      (Format.pp_print_list
         ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ",")
         pp_dim)
      dims
  | Scalar_decl s -> Format.pp_print_string fmt s

let pp_app_item fmt = function
  | Apply (f, args) -> Format.fprintf fmt "%s (%a);" f pp_name_list args
  | Swap (a, b) -> Format.fprintf fmt "swap (%s, %s);" a b

let pp_host_item fmt = function
  | Run app -> pp_app_item fmt app
  | Iterate (n, apps) ->
    Format.fprintf fmt "@[<v 2>iterate %d {" n;
    List.iter (fun a -> Format.fprintf fmt "@\n%a" pp_app_item a) apps;
    Format.fprintf fmt "@]@\n}"

let pp_program fmt (p : program) =
  if p.params <> [] then
    Format.fprintf fmt "parameter %a;@\n"
      (Format.pp_print_list
         ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
         (fun fmt (n, v) -> Format.fprintf fmt "%s=%d" n v))
      p.params;
  if p.iters <> [] then Format.fprintf fmt "iterator %a;@\n" pp_name_list p.iters;
  if p.decls <> [] then
    Format.fprintf fmt "double %a;@\n"
      (Format.pp_print_list
         ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
         pp_decl)
      p.decls;
  if p.copyin <> [] then Format.fprintf fmt "copyin %a;@\n" pp_name_list p.copyin;
  List.iter (fun s -> pp_stencil fmt s) p.stencils;
  List.iter (fun h -> Format.fprintf fmt "%a@\n" pp_host_item h) p.main;
  if p.copyout <> [] then Format.fprintf fmt "copyout %a;@\n" pp_name_list p.copyout

let expr_to_string e = Format.asprintf "%a" pp_expr e
let program_to_string p = Format.asprintf "%a" pp_program p
