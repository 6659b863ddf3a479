(* Static analysis of instantiated kernels: access offsets, stencil order,
   FLOP counts, halo extents for fusion, and the homogenizability test used
   by retiming (paper, Sections II-III).

   FLOP convention: each binary arithmetic operation counts as one FLOP
   (negation is folded and counts zero; one-argument intrinsics count one,
   [pow] counts one, [fma] counts two).  With this convention the 7-point
   Jacobi of Listing 1 costs exactly the 10 FLOPs reported in Table I, and
   theoretical OI = flops / (8 bytes x #IO arrays) reproduces every OI_T
   entry of Table III. *)

open Ast
module I = Instantiate

(** One array read with its per-dimension binding: for each dimension of
    the array, the iterator indexing it (if any) and the constant shift. *)
type access = {
  array : string;
  binding : (string option * int) array;
}

let accesses_of_expr e =
  List.map
    (fun (a, idx) ->
      { array = a; binding = Array.of_list (List.map (fun i -> (i.iter, i.shift)) idx) })
    (reads_of_expr e)

let accesses_of_stmt st = fold_stmt_exprs (fun acc e -> acc @ accesses_of_expr e) [] st

let read_accesses (k : I.kernel) = List.concat_map accesses_of_stmt k.body

(* [v.(d) <- shift] where [name] is the [d]-th of [iters]. *)
let place v iters name shift =
  let rec go d = function
    | [] -> ()
    | it :: rest -> if String.equal it name then v.(d) <- shift else go (d + 1) rest
  in
  go 0 iters

(** [offset_vector iters access] maps an access to a shift per kernel
    iterator (dimensions indexed by a constant contribute nothing). *)
let offset_vector iters (a : access) =
  let v = Array.make (List.length iters) 0 in
  Array.iter (fun (it, shift) -> Option.iter (fun name -> place v iters name shift) it) a.binding;
  v

(** Maximum |shift| over all reads of grid arrays: the stencil order [k]
    of Table I. *)
let stencil_order (k : I.kernel) =
  List.fold_left
    (fun acc a ->
      Array.fold_left
        (fun acc (it, shift) -> if it = None then acc else max acc (abs shift))
        acc a.binding)
    0 (read_accesses k)

(** Per-dimension order: maximum |shift| along each kernel iterator. *)
let order_per_dim (k : I.kernel) =
  let v = Array.make (List.length k.iters) 0 in
  List.iter
    (fun a ->
      let ov = offset_vector k.iters a in
      Array.iteri (fun d s -> v.(d) <- max v.(d) (abs s)) ov)
    (read_accesses k);
  v

let intrinsic_flops = function
  | "min" | "max" | "sqrt" | "fabs" | "exp" | "log" | "sin" | "cos" | "pow" -> 1
  | "fma" -> 2
  | _ -> 1

let rec flops_of_expr = function
  | Const _ | Scalar_ref _ | Access _ -> 0
  | Neg e -> flops_of_expr e
  | Bin (_, e1, e2) -> 1 + flops_of_expr e1 + flops_of_expr e2
  | Call (f, args) ->
    intrinsic_flops f + List.fold_left (fun acc e -> acc + flops_of_expr e) 0 args

let flops_of_stmt = function
  | Decl_temp (_, e) ->
    (* A temporary with no array reads is loop-invariant: the compiler
       hoists it, so it costs nothing per point (the paper's Table I
       counts the Listing-1 Jacobi at 10 FLOPs accordingly). *)
    if reads_of_expr e = [] then 0 else flops_of_expr e
  | Assign (_, _, e) -> flops_of_expr e
  | Accum (_, _, e) -> 1 + flops_of_expr e  (* the += add *)

(** Useful double-precision FLOPs per interior domain point. *)
let flops_per_point (k : I.kernel) =
  List.fold_left (fun acc st -> acc + flops_of_stmt st) 0 k.body

(** Distinct input/output arrays touched — the "# IO Arrays" of Table I. *)
let io_arrays (k : I.kernel) = List.map fst k.arrays
let io_array_count (k : I.kernel) = List.length k.arrays

(** Theoretical operational intensity (Table III, column OI_T): FLOPs per
    byte assuming each IO array element moves exactly once. *)
let theoretical_oi (k : I.kernel) =
  float_of_int (flops_per_point k) /. (8.0 *. float_of_int (io_array_count k))

(** Number of textual reads of each array per domain point (used to pick a
    demotion victim during resource rationing, Section II-B2), from the
    kernel's [read_accesses]. *)
let tally_reads (k : I.kernel) reads =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun a ->
      Hashtbl.replace tbl a.array (1 + Option.value ~default:0 (Hashtbl.find_opt tbl a.array)))
    reads;
  List.filter_map
    (fun (name, _) -> Option.map (fun c -> (name, c)) (Hashtbl.find_opt tbl name))
    k.arrays

let reads_per_point k = tally_reads k (read_accesses k)

(** Distinct read-offset vectors per array, aligned to kernel iterators,
    from the kernel's [read_accesses].  Lower-rank arrays produce vectors
    with zeros in unbound dimensions. *)
let offsets_of_reads iters reads =
  let tbl = Hashtbl.create 16 and seen = Hashtbl.create 64 in
  List.iter
    (fun a ->
      let ov = offset_vector iters a in
      if not (Hashtbl.mem seen (a.array, ov)) then begin
        Hashtbl.replace seen (a.array, ov) ();
        Hashtbl.replace tbl a.array (ov :: Option.value ~default:[] (Hashtbl.find_opt tbl a.array))
      end)
    reads;
  Hashtbl.fold (fun name offs acc -> (name, List.rev offs) :: acc) tbl []
  |> List.sort compare

let distinct_offsets (k : I.kernel) = offsets_of_reads k.iters (read_accesses k)

(* ------------------------------------------------------------------ *)
(* Halo extents for multi-statement (fused) kernels                    *)
(* ------------------------------------------------------------------ *)

(** Interval per dimension describing how far beyond the output tile a
    value must be available: [(lo, hi)] with [lo <= 0 <= hi]. *)
type extent = (int * int) array

let zero_extent rank = Array.make rank (0, 0)

let union_extent (a : extent) (b : extent) =
  Array.init (Array.length a) (fun d ->
      let alo, ahi = a.(d) and blo, bhi = b.(d) in
      (min alo blo, max ahi bhi))

let shift_extent (e : extent) (off : int array) =
  Array.init (Array.length e) (fun d ->
      let lo, hi = e.(d) in
      (lo + off.(d), hi + off.(d)))

let extent_width (e : extent) d =
  let lo, hi = e.(d) in
  hi - lo

(** [required_extents kernel] computes, for every array and temporary the
    body reads or writes, the region (relative to one output point) that
    must be available: the classic backward halo propagation that drives
    overlapped tiling of stencil DAGs.  Final outputs get [(0, 0)] per
    dimension; walking the body backwards, a statement computing [A] over
    extent [eA] forces each read [B\[+off\]] to extent [eA + off]. *)
let required_extents (k : I.kernel) =
  let rank = List.length k.iters in
  let exts : (string, extent) Hashtbl.t = Hashtbl.create 16 in
  let entry name =
    match Hashtbl.find_opt exts name with
    | Some e -> e
    | None ->
      let e = zero_extent rank in
      Hashtbl.replace exts name e;
      e
  in
  (* Widen [name]'s entry, in place, by extent [e] shifted by [off]. *)
  let widen name (e : extent) (off : int array) =
    let t = entry name in
    Array.iteri
      (fun d (lo, hi) ->
        let tlo, thi = t.(d) in
        t.(d) <- (min tlo (lo + off.(d)), max thi (hi + off.(d))))
      e
  in
  (* Arrays written but never read later in the body are final outputs. *)
  List.iter (fun st -> Option.iter (fun a -> ignore (entry a)) (written_array st)) k.body;
  let no_shift = Array.make rank 0 in
  let process_stmt st =
    let target = match st with Decl_temp (n, _) -> n | Assign (a, _, _) | Accum (a, _, _) -> a in
    (* A copy: a self-read widens the target's own entry. *)
    let stmt_extent =
      match Hashtbl.find_opt exts target with
      | Some e -> Array.copy e
      | None -> zero_extent rank
    in
    fold_stmt_exprs
      (fold_expr (fun () -> function
         | Access (a, idx) ->
           let off = Array.make rank 0 in
           List.iter
             (fun (i : index) -> Option.iter (fun name -> place off k.iters name i.shift) i.iter)
             idx;
           widen a stmt_extent off
         | Scalar_ref s -> widen s stmt_extent no_shift
         | Const _ | Neg _ | Bin _ | Call _ -> ()))
      () st
  in
  List.iter process_stmt (List.rev k.body);
  exts

(* ------------------------------------------------------------------ *)
(* Homogenizability (retiming precondition, Section III-B2)            *)
(* ------------------------------------------------------------------ *)

(** Split an expression into top-level additive terms with their signs. *)
let rec decompose_sum e =
  match e with
  | Bin (Add, e1, e2) -> decompose_sum e1 @ decompose_sum e2
  | Bin (Sub, e1, e2) ->
    decompose_sum e1 @ List.map (fun (sign, t) -> (not sign, t)) (decompose_sum e2)
  | Neg e1 -> List.map (fun (sign, t) -> (not sign, t)) (decompose_sum e1)
  | _ -> [ (true, e) ]

(** [term_stream_shift iters dim t] is [Some s] when every array read in
    term [t] has the same shift [s] along iterator [dim] (so adding [-s]
    to both sides homogenizes the term), and [None] when shifts differ.
    A term with no array reads homogenizes trivially at shift 0. *)
let term_stream_shift iters dim t =
  let d =
    match List.find_index (String.equal dim) iters with
    | Some d -> d
    | None -> invalid_arg "term_stream_shift: unknown iterator"
  in
  let shifts =
    List.map (fun a -> (offset_vector iters a).(d)) (accesses_of_expr t)
    |> List.sort_uniq compare
  in
  match shifts with
  | [] -> Some 0
  | [ s ] -> Some s
  | _ :: _ :: _ -> None

(** A statement is retimable along [dim] when each additive term of its
    RHS is homogenizable; the whole kernel is retimable when all statements
    writing grid arrays are. *)
let stmt_retimable iters dim = function
  | Decl_temp (_, e) | Assign (_, _, e) | Accum (_, _, e) ->
    List.for_all (fun (_, t) -> term_stream_shift iters dim t <> None) (decompose_sum e)

let kernel_retimable (k : I.kernel) dim =
  List.length k.iters >= 1
  && List.mem dim k.iters
  && List.for_all (stmt_retimable k.iters dim) k.body

(* ------------------------------------------------------------------ *)
(* Pointwise-combination detection (folding, Section III-B4)           *)
(* ------------------------------------------------------------------ *)

(** Arrays that are only ever read at the same offsets as one another and
    always combined with the same pointwise operator can be folded into a
    single staged value.  [foldable_groups k] returns groups of arrays
    that are only read as [A op B op ...] at identical offsets. *)
let foldable_groups (k : I.kernel) =
  (* Collect maximal product/sum chains whose factors are single reads of
     distinct arrays at equal offsets. *)
  let chains = Hashtbl.create 8 in
  let rec scan e =
    match e with
    | Bin (op, _, _) when op = Mul || op = Add -> (
      let rec flatten = function
        | Bin (o, a, b) when o = op -> flatten a @ flatten b
        | other -> [ other ]
      in
      let parts = flatten e in
      let as_reads =
        List.map (function Access (a, idx) -> Some (a, idx) | _ -> None) parts
      in
      if List.for_all Option.is_some as_reads && List.length parts > 1 then begin
        let reads = List.map Option.get as_reads in
        let offsets = List.map snd reads |> List.sort_uniq compare in
        let arrays = List.map fst reads |> List.sort_uniq compare in
        if List.length offsets = 1 && List.length arrays = List.length reads then
          Hashtbl.replace chains (op, arrays) ()
      end;
      List.iter scan parts)
    | Bin (_, e1, e2) -> scan e1; scan e2
    | Neg e1 -> scan e1
    | Call (_, args) -> List.iter scan args
    | Const _ | Scalar_ref _ | Access _ -> ()
  in
  List.iter (fun st -> fold_stmt_exprs (fun () e -> scan e) () st) k.body;
  (* A group is foldable only if its member arrays are *never* read outside
     the chain pattern, i.e. every read of a member is part of a chain with
     the same signature.  Conservatively require that each member array is
     read only together with the group. *)
  let reads = reads_per_point k in
  let count a = Option.value ~default:0 (List.assoc_opt a reads) in
  let candidates = Hashtbl.fold (fun key () acc -> key :: acc) chains [] in
  List.filter
    (fun (_, arrays) ->
      (* Members are distinct, and each chain occurrence reads every
         member exactly once. *)
      let group_read_count = List.fold_left (fun acc a -> acc + count a) 0 arrays in
      group_read_count mod List.length arrays = 0
      && List.for_all (fun a -> count a * List.length arrays = group_read_count) arrays)
    candidates
