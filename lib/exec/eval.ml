(* Expression evaluation at a domain point: shared by the reference
   executor and the block executor so both compute identical values.

   Two evaluation strategies live here:

   - the tree-walking interpreter ([eval]/[guard]), which resolves names
     and iterator dimensions at every grid point; and
   - the flat-index row evaluator ([compile_stmt] under a [Rows]
     schedule) that sweeps whole rows through float arrays.

   Both produce bit-identical results (the row evaluator mirrors the
   interpreter's float-operation order exactly).  The executors use the
   row evaluator by default; the [Interpret] schedule selects the
   interpreter — the point-wise reference the tests and the fuzz oracle
   check the row evaluator against. *)

module A = Artemis_dsl.Ast
module Static = Artemis_static.Static

exception Out_of_bounds
exception Unknown_intrinsic of string

type env = {
  lookup_array : string -> Grid.t;  (** concrete array storage *)
  lookup_scalar : string -> float;  (** runtime scalar arguments *)
  lookup_temp : string -> float;  (** per-point temporaries (raises Not_found) *)
  iters : string list;  (** kernel iterators, outermost first *)
}

(** Absolute coordinates of an access at domain point [point]: each array
    dimension indexed by [iterator + shift] resolves against the point's
    component for that iterator; constant indices resolve as-is. *)
let access_coords env (point : int array) (idx : A.index list) =
  let coords = Array.make (List.length idx) 0 in
  List.iteri
    (fun d (i : A.index) ->
      match i.iter with
      | None -> coords.(d) <- i.shift
      | Some it -> (
        match List.find_index (String.equal it) env.iters with
        | Some dim -> coords.(d) <- point.(dim) + i.shift
        | None -> invalid_arg ("unbound iterator " ^ it)))
    idx;
  coords

let apply_intrinsic f args =
  match (f, args) with
  | "sqrt", [ x ] -> sqrt x
  | "fabs", [ x ] -> Float.abs x
  | "exp", [ x ] -> exp x
  | "log", [ x ] -> log x
  | "sin", [ x ] -> sin x
  | "cos", [ x ] -> cos x
  | "min", [ x; y ] -> Float.min x y
  | "max", [ x; y ] -> Float.max x y
  | "pow", [ x; y ] -> Float.pow x y
  | "fma", [ x; y; z ] -> Float.fma x y z
  | _ -> raise (Unknown_intrinsic f)

(** Evaluate [e] at [point].
    @raise Out_of_bounds when any array read falls outside its grid (the
    caller treats the statement as guarded off at this point). *)
let rec eval env point (e : A.expr) =
  match e with
  | A.Const f -> f
  | A.Scalar_ref s -> (
    match env.lookup_temp s with
    | v -> v
    | exception Not_found -> env.lookup_scalar s)
  | A.Access (a, idx) ->
    let g = env.lookup_array a in
    let coords = access_coords env point idx in
    if Grid.in_bounds g coords then Grid.get g coords else raise Out_of_bounds
  | A.Neg e1 -> -.eval env point e1
  | A.Bin (op, e1, e2) -> (
    let v1 = eval env point e1 in
    let v2 = eval env point e2 in
    match op with
    | A.Add -> v1 +. v2
    | A.Sub -> v1 -. v2
    | A.Mul -> v1 *. v2
    | A.Div -> v1 /. v2)
  | A.Call (f, args) -> apply_intrinsic f (List.map (eval env point) args)

(** True when every array read of [e] at [point] is in bounds — the guard
    the generated CUDA emits around each statement. *)
let guard env point (e : A.expr) =
  List.for_all
    (fun (a, idx) ->
      let g = env.lookup_array a in
      Grid.in_bounds g (access_coords env point idx))
    (A.reads_of_expr e)

(* ------------------------------------------------------------------ *)
(* Schedule                                                            *)
(* ------------------------------------------------------------------ *)

type schedule = Interpret | Rows of { wavefront : bool; static_elim : bool }

let default_schedule = Rows { wavefront = true; static_elim = true }

type binder = {
  bind_array : string -> Grid.t;  (** array storage, temp grids included *)
  bind_temp : string -> Grid.t option;  (** per-point temporaries as grids *)
  bind_scalar : string -> float;
  binder_iters : string list;
}

(* Interpreter env over a binder: the per-point temp lookup needs the
   current point, threaded through a ref. *)
let env_of_binder (b : binder) =
  let env_point = ref [||] in
  let env =
    {
      lookup_array = b.bind_array;
      lookup_scalar = b.bind_scalar;
      lookup_temp =
        (fun t ->
          match b.bind_temp t with
          | Some g -> Grid.get g !env_point
          | None -> raise Not_found);
      iters = b.binder_iters;
    }
  in
  (env, env_point)

let iter_dim (b : binder) it =
  let rec find i = function
    | [] -> invalid_arg ("unbound iterator " ^ it)
    | x :: _ when String.equal x it -> i
    | _ :: rest -> find (i + 1) rest
  in
  find 0 b.binder_iters

(* ------------------------------------------------------------------ *)
(* Flat-index compilation for interior sweeps                          *)
(* ------------------------------------------------------------------ *)

(* Inside a guaranteed-in-bounds interior box every per-point check is
   dead weight, and so is recomputing multi-dimensional coordinates: an
   affine access moves through a grid's flat [float array] with a fixed
   stride along the innermost iterator.  [compile_stmt] lowers a
   statement to that form.  Per row, each access resolves to a flat base
   offset (a constant plus one coefficient per iteration dimension);
   the expression then evaluates a whole row at a time, one tight loop
   per operation over (array, offset, stride) operands into reused row
   buffers, so no float is boxed per point.  Row-invariant subtrees
   (arithmetic over scalars and accesses that do not move along the row)
   are evaluated once per row and read back with stride 0. *)

type access_path = {
  ap_grid : Grid.t;
  ap_spec : (int * int) array;
      (* per array dimension: (iteration dim, shift); dim = -1 constant *)
  ap_step : int;  (* flat-index stride per unit of the innermost iterator *)
  ap_const : int;  (* flat index at the iteration-space origin *)
  ap_coef : int array;  (* flat-index stride per iteration dimension *)
  mutable ap_base : int;  (* flat index at the current row's start point *)
}

let spec_of (b : binder) (idx : A.index list) =
  Array.of_list
    (List.map
       (fun (i : A.index) ->
         match i.iter with
         | None -> (-1, i.shift)
         | Some it -> (iter_dim b it, i.shift))
       idx)

let access_path (b : binder) (g : Grid.t) (idx : A.index list) =
  let spec = spec_of b idx in
  let rank = List.length b.binder_iters in
  let coef = Array.make rank 0 in
  let const = ref 0 in
  Array.iteri
    (fun d (dim, shift) ->
      let s = g.Grid.strides.(d) in
      const := !const + (shift * s);
      if dim >= 0 then coef.(dim) <- coef.(dim) + s)
    spec;
  {
    ap_grid = g;
    ap_spec = spec;
    ap_step = (if rank = 0 then 0 else coef.(rank - 1));
    ap_const = !const;
    ap_coef = coef;
    ap_base = 0;
  }

let path_bind_row (p : access_path) (point : int array) =
  let coef = p.ap_coef in
  let base = ref p.ap_const in
  for dim = 0 to Array.length coef - 1 do
    base := !base + (coef.(dim) * point.(dim))
  done;
  p.ap_base <- !base

(* Every access of [paths] is in bounds at [point]. *)
let paths_in_bounds (paths : access_path array) (point : int array) =
  let ok = ref true and k = ref 0 in
  while !ok && !k < Array.length paths do
    let p = paths.(!k) in
    let dims = p.ap_grid.Grid.dims and spec = p.ap_spec in
    for d = 0 to Array.length spec - 1 do
      let dim, shift = spec.(d) in
      let c = if dim < 0 then shift else point.(dim) + shift in
      if c < 0 || c >= dims.(d) then ok := false
    done;
    incr k
  done;
  !ok

(** Intersect [box] (over the iteration space) with the region where
    every access of [paths] is in bounds.  Each array dimension
    constrains one iteration dimension to an interval, so the in-bounds
    set is exactly a box — the same set the statement's guard accepts.
    A constant index outside its extent empties the box. *)
let clip_in_bounds (paths : access_path list) (box : Region.box) : Region.box =
  let out = Array.copy box in
  List.iter
    (fun p ->
      Array.iteri
        (fun d (dim, shift) ->
          let n = p.ap_grid.Grid.dims.(d) in
          if dim < 0 then begin
            if shift < 0 || shift >= n then out.(0) <- (0, -1)
          end
          else begin
            let lo, hi = out.(dim) in
            out.(dim) <- (max lo (-shift), min hi (n - 1 - shift))
          end)
        p.ap_spec)
    paths;
  out

(* Splitting reorders the sweep (shells before interior), so it is only
   sound when reordering cannot be observed:

   - any read aliasing the written grid must read exactly the cell being
     written (a pure identity self-read — order-independent no matter
     what the iterators cover); and
   - an iteration dimension missing from the write index (the same cell
     written on every value of that dimension) is harmless as long as no
     read varies along it: every repeat then computes the same value, so
     assignment is idempotent and accumulation applies the same
     per-cell function the same number of times in any order.  A read
     that does vary along an uncovered dimension makes the repeats
     observable (which repeat lands last / the float accumulation order)
     and forces the guarded path.  Per-point temporaries are
     domain-shaped identity reads: they vary along every dimension
     ([reads_temp]). *)
let order_independent ~rank ~(target : Grid.t) ~(wspec : (int * int) array)
    ~reads_temp paths =
  let covered = Array.make (max rank 1) false in
  Array.iter (fun (dim, _) -> if dim >= 0 then covered.(dim) <- true) wspec;
  let varying = Array.make (max rank 1) reads_temp in
  List.iter
    (fun p ->
      Array.iter
        (fun (dim, _) -> if dim >= 0 then varying.(dim) <- true)
        p.ap_spec)
    paths;
  let free_ok = ref true in
  for d = 0 to rank - 1 do
    if (not covered.(d)) && varying.(d) then free_ok := false
  done;
  !free_ok
  && List.for_all
       (fun p ->
         (not (p.ap_grid.Grid.data == target.Grid.data)) || p.ap_spec = wspec)
       paths

(* An operand of the row evaluator: element [q] of a row is
   [arr.(at.ap_base + q * stride)].  A read uses its own path; a
   constant cell (a literal, a scalar, a row-invariant subtree's value)
   and a row buffer use [origin] (base 0), so rebinding a row touches
   only the paths. *)
type operand = {
  mutable arr : float array;  (* a row buffer's is re-pointed as it grows *)
  at : access_path;
  stride : int;
  reg : int;  (* row-buffer index, or -1 *)
}

let origin =
  {
    ap_grid = { Grid.dims = [||]; strides = [||]; data = [||] };
    ap_spec = [||];
    ap_step = 0;
    ap_const = 0;
    ap_coef = [||];
    ap_base = 0;
  }

let mem_operand p = { arr = p.ap_grid.Grid.data; at = p; stride = p.ap_step; reg = -1 }
let cell_operand v = { arr = [| v |]; at = origin; stride = 0; reg = -1 }
let reg_operand r = { arr = [||]; at = origin; stride = 1; reg = r }

type opcode =
  | Neg
  | Add
  | Sub
  | Mul
  | Div
  | Sqrt
  | Fabs
  | Exp
  | Log
  | Sin
  | Cos
  | Min
  | Max
  | Pow
  | Fma

(* [dst] is a row buffer, or a cell for the root of a row-invariant
   subtree (evaluated over [0, 1) only).  Unused operands are a dummy
   cell. *)
type instr = { op : opcode; dst : operand; a : operand; b : operand; c : operand }

type flat = {
  fl_paths : access_path array;  (* distinct reads, rebound per row *)
  fl_setup : instr array;  (* row-invariant subtrees, over [0, 1) *)
  fl_body : instr array;  (* the rest, over the requested range *)
  fl_root : operand;
  fl_in_order : bool;
      (* evaluate and store point by point: a read may see a cell an
         earlier point of the same row writes *)
  fl_regs : float array array;  (* row buffers, >= row length *)
  fl_reg_operands : operand list;  (* every row-buffer operand *)
}

(* Elements [lo, hi) of one instruction.  Each float operation and its
   operand order mirror [eval], so every element is bit-identical to the
   point-wise interpreter. *)
let exec_instr lo hi (i : instr) =
  let (o : float array) = i.dst.arr in
  let (x : float array) = i.a.arr in
  let xo = i.a.at.ap_base and xs = i.a.stride in
  let (y : float array) = i.b.arr in
  let yo = i.b.at.ap_base and ys = i.b.stride in
  match i.op with
  | Neg ->
    for q = lo to hi - 1 do
      o.(q) <- -.x.(xo + (q * xs))
    done
  | Add ->
    for q = lo to hi - 1 do
      o.(q) <- x.(xo + (q * xs)) +. y.(yo + (q * ys))
    done
  | Sub ->
    for q = lo to hi - 1 do
      o.(q) <- x.(xo + (q * xs)) -. y.(yo + (q * ys))
    done
  | Mul ->
    for q = lo to hi - 1 do
      o.(q) <- x.(xo + (q * xs)) *. y.(yo + (q * ys))
    done
  | Div ->
    for q = lo to hi - 1 do
      o.(q) <- x.(xo + (q * xs)) /. y.(yo + (q * ys))
    done
  | Sqrt ->
    for q = lo to hi - 1 do
      o.(q) <- sqrt x.(xo + (q * xs))
    done
  | Fabs ->
    for q = lo to hi - 1 do
      o.(q) <- Float.abs x.(xo + (q * xs))
    done
  | Exp ->
    for q = lo to hi - 1 do
      o.(q) <- exp x.(xo + (q * xs))
    done
  | Log ->
    for q = lo to hi - 1 do
      o.(q) <- log x.(xo + (q * xs))
    done
  | Sin ->
    for q = lo to hi - 1 do
      o.(q) <- sin x.(xo + (q * xs))
    done
  | Cos ->
    for q = lo to hi - 1 do
      o.(q) <- cos x.(xo + (q * xs))
    done
  | Min ->
    for q = lo to hi - 1 do
      o.(q) <- Float.min x.(xo + (q * xs)) y.(yo + (q * ys))
    done
  | Max ->
    for q = lo to hi - 1 do
      o.(q) <- Float.max x.(xo + (q * xs)) y.(yo + (q * ys))
    done
  | Pow ->
    for q = lo to hi - 1 do
      o.(q) <- Float.pow x.(xo + (q * xs)) y.(yo + (q * ys))
    done
  | Fma ->
    let (z : float array) = i.c.arr in
    let zo = i.c.at.ap_base and zs = i.c.stride in
    for q = lo to hi - 1 do
      o.(q) <- Float.fma x.(xo + (q * xs)) y.(yo + (q * ys)) z.(zo + (q * zs))
    done

let exec_prog (prog : instr array) lo hi =
  for k = 0 to Array.length prog - 1 do
    exec_instr lo hi prog.(k)
  done

let opcode_of_call f nargs =
  match (f, nargs) with
  | "sqrt", 1 -> Sqrt
  | "fabs", 1 -> Fabs
  | "exp", 1 -> Exp
  | "log", 1 -> Log
  | "sin", 1 -> Sin
  | "cos", 1 -> Cos
  | "min", 2 -> Min
  | "max", 2 -> Max
  | "pow", 2 -> Pow
  | "fma", 3 -> Fma
  | _ -> raise (Unknown_intrinsic f)

(* Expression tree annotated for emission.  An operation is hoisted to
   row setup when it is row-invariant (no operand moves along the row)
   and reads nothing aliasing the written grid (an earlier point of the
   sweep may have updated it). *)
type node = Leaf of operand | Op of opcode * node array * bool

(* The distinct array reads of an expression, first occurrence first,
   each lowered once: the statement's in-bounds constraints and the row
   evaluator's operands share them. *)
type read_paths = {
  rp_list : access_path list;
  rp_table : (string * A.index list, access_path) Hashtbl.t;
}

let read_paths (b : binder) (e : A.expr) =
  let table = Hashtbl.create 16 in
  let list =
    List.filter_map
      (fun ((a, idx) as key) ->
        if Hashtbl.mem table key then None
        else begin
          let p = access_path b (b.bind_array a) idx in
          Hashtbl.replace table key p;
          Some p
        end)
      (A.reads_of_expr e)
  in
  { rp_list = list; rp_table = table }

(* [wstep] is the write's stride along the row and [wavefront] marks a
   schedule with in-row dependences: both make the row evaluate point
   by point (a write step of 0 with a target-aliased read means every
   point updates the cell the next one reads). *)
let compile_flat (b : binder) ~(target : Grid.t) ~(reads : read_paths) ~wstep
    ~wavefront (e : A.expr) : flat =
  let identity_idx = List.map (fun it -> A.index ~iter:it 0) b.binder_iters in
  let temp_paths = ref [] in
  (* One leaf per distinct read: (node, varies along the row, reads the
     written grid). *)
  let leaves = Hashtbl.create 16 in
  let mem key path_of =
    match Hashtbl.find_opt leaves key with
    | Some leaf -> leaf
    | None ->
      let p = path_of () in
      let leaf =
        ( Leaf (mem_operand p),
          p.ap_step <> 0,
          p.ap_grid.Grid.data == target.Grid.data )
      in
      Hashtbl.replace leaves key leaf;
      leaf
  in
  let rec annotate e =
    match e with
    | A.Const f -> (Leaf (cell_operand f), false, false)
    | A.Scalar_ref s -> (
      (* Temps shadow scalars; a per-point temporary is a domain-shaped
         grid read at the point itself — an identity access. *)
      match b.bind_temp s with
      | Some g ->
        mem (true, s, identity_idx) (fun () ->
            let p = access_path b g identity_idx in
            temp_paths := p :: !temp_paths;
            p)
      | None -> (Leaf (cell_operand (b.bind_scalar s)), false, false))
    | A.Access (a, idx) ->
      mem (false, a, idx) (fun () -> Hashtbl.find reads.rp_table (a, idx))
    | A.Neg e1 -> op Neg [ e1 ]
    | A.Bin (o, e1, e2) ->
      let code =
        match o with A.Add -> Add | A.Sub -> Sub | A.Mul -> Mul | A.Div -> Div
      in
      op code [ e1; e2 ]
    | A.Call (f, args) -> op (opcode_of_call f (List.length args)) args
  and op code args =
    let args = List.map annotate args in
    let varies = List.exists (fun (_, v, _) -> v) args in
    let hazard = List.exists (fun (_, _, h) -> h) args in
    let nodes = Array.of_list (List.map (fun (n, _, _) -> n) args) in
    (Op (code, nodes, (not varies) && not hazard), varies, hazard)
  in
  let root, _, hazard = annotate e in
  (* Registers are allocated stack-wise: argument [k] of an operation
     at register [base] lands in the next free register, and the result
     overwrites the first (elementwise, after reading it).  Setup runs
     before the body, so the two programs share registers. *)
  let setup = ref [] and body = ref [] and nregs = ref 0 in
  let reg_operands = ref [] in
  let unused = cell_operand 0.0 in
  let rec emit ~in_setup ~base node =
    match node with
    | Leaf o -> o
    | Op (code, args, hoisted) ->
      if hoisted && not in_setup then begin
        let cell = cell_operand 0.0 in
        emit_op ~in_setup:true ~base:0 ~dst:cell code args;
        cell
      end
      else begin
        let dst = reg_operand base in
        reg_operands := dst :: !reg_operands;
        nregs := max !nregs (base + 1);
        emit_op ~in_setup ~base ~dst code args;
        dst
      end
  and emit_op ~in_setup ~base ~dst code args =
    let next = ref base in
    let srcs =
      Array.map
        (fun n ->
          let o = emit ~in_setup ~base:!next n in
          if o.reg >= 0 then incr next;
          o)
        args
    in
    let arg k = if k < Array.length srcs then srcs.(k) else unused in
    let i = { op = code; dst; a = arg 0; b = arg 1; c = arg 2 } in
    if in_setup then setup := i :: !setup else body := i :: !body
  in
  let root = emit ~in_setup:false ~base:0 root in
  {
    fl_paths = Array.of_list (reads.rp_list @ !temp_paths);
    fl_setup = Array.of_list (List.rev !setup);
    fl_body = Array.of_list (List.rev !body);
    fl_root = root;
    fl_in_order = wavefront || (wstep = 0 && hazard);
    fl_regs = Array.make !nregs [||];
    fl_reg_operands = !reg_operands;
  }

(* Bind the row starting at [point] for [n] points: rebase every read,
   grow the row buffers, evaluate the row-invariant subtrees. *)
let bind_row (fl : flat) (point : int array) n =
  let paths = fl.fl_paths in
  for k = 0 to Array.length paths - 1 do
    path_bind_row paths.(k) point
  done;
  let regs = fl.fl_regs in
  if Array.length regs > 0 && Array.length regs.(0) < n then begin
    for r = 0 to Array.length regs - 1 do
      regs.(r) <- Array.make n 0.0
    done;
    List.iter (fun o -> o.arr <- regs.(o.reg)) fl.fl_reg_operands
  end;
  exec_prog fl.fl_setup 0 1

type split_stmt = {
  ss_write : access_path;
  ss_expr : flat;
  ss_paths : access_path list;  (* write + reads: the in-bounds constraints *)
}

(* Does the expression read any per-point temporary?  [reads_of_expr]
   only lists array accesses, so temp reads (domain-shaped identity
   accesses) must be detected separately for [order_independent]. *)
let rec expr_reads_temp (b : binder) (e : A.expr) =
  match e with
  | A.Const _ | A.Access _ -> false
  | A.Scalar_ref s -> b.bind_temp s <> None
  | A.Neg e1 -> expr_reads_temp b e1
  | A.Bin (_, e1, e2) -> expr_reads_temp b e1 || expr_reads_temp b e2
  | A.Call (_, args) -> List.exists (expr_reads_temp b) args

let split_of (b : binder) ~target ~wavefront wpath reads e =
  {
    ss_write = wpath;
    ss_expr = compile_flat b ~target ~reads ~wstep:wpath.ap_step ~wavefront e;
    ss_paths = wpath :: reads.rp_list;
  }

let split_interior (ss : split_stmt) (region : Region.box) =
  clip_in_bounds ss.ss_paths region

(** True when the affine analyzer, recomputing the statement's in-bounds
    footprint from the raw (extents, spec) pairs, lands on exactly the
    executor's own [clip_in_bounds] box [interior].  Only then are the
    shells provably dead — every region point outside [interior] fails
    the write bounds check or the read guard, so the guarded body would
    fall through without writing.  Two independent engines must agree
    before a guard is skipped; disagreement falls back to sweeping. *)
let elim_proven ~schedule (ss : split_stmt) ~(region : Region.box)
    ~(interior : Region.box) =
  (match schedule with Rows { static_elim; _ } -> static_elim | Interpret -> false)
  && Static.box_equal
       (Static.footprint ~region
          ~accesses:
            (List.map (fun p -> (p.ap_grid.Grid.dims, p.ap_spec)) ss.ss_paths))
       interior

let run_row ~accum (ss : split_stmt) (point : int array) (n : int) =
  let fl = ss.ss_expr in
  bind_row fl point n;
  path_bind_row ss.ss_write point;
  let (data : float array) = ss.ss_write.ap_grid.Grid.data in
  let base = ss.ss_write.ap_base and step = ss.ss_write.ap_step in
  let (v : float array) = fl.fl_root.arr in
  let vo = fl.fl_root.at.ap_base and vs = fl.fl_root.stride in
  if fl.fl_in_order then
    for q = 0 to n - 1 do
      exec_prog fl.fl_body q (q + 1);
      let w = base + (q * step) in
      if accum then data.(w) <- data.(w) +. v.(vo + (q * vs))
      else data.(w) <- v.(vo + (q * vs))
    done
  else begin
    exec_prog fl.fl_body 0 n;
    if accum then
      for q = 0 to n - 1 do
        let w = base + (q * step) in
        data.(w) <- data.(w) +. v.(vo + (q * vs))
      done
    else
      for q = 0 to n - 1 do
        data.(base + (q * step)) <- v.(vo + (q * vs))
      done
  end

(* ------------------------------------------------------------------ *)
(* Unified statement compilation                                       *)
(* ------------------------------------------------------------------ *)

type stmt_class =
  | Sc_split of split_stmt
  | Sc_wavefront of split_stmt * int array
  | Sc_guarded

type stmt_exec = {
  sx_class : stmt_class;
  sx_guarded : int array -> unit;
  sx_row : int array -> int -> unit;
}

let no_row _ _ = invalid_arg "Eval.compile_stmt: guarded statement has no row body"

(* Uniform self-dependence distances of the statement, or [None] when
   the wavefront schedule does not apply.  Aliasing is physical: a read
   counts when it shares [target]'s storage, whatever array name it
   goes by.  The write must cover every iteration dimension, or the
   statement stays guarded; the distances themselves are the affine
   engine's ([Static.distances]). *)
let self_deltas ~rank ~(target : Grid.t) ~(wspec : (int * int) array) paths =
  if not (Static.write_covers ~rank wspec) then None
  else
    Static.distances ~rank ~wspec
      (List.filter_map
         (fun p ->
           if p.ap_grid.Grid.data == target.Grid.data then Some p.ap_spec
           else None)
         paths)

(** One statement compiled for sweeping: the guarded per-point closure
    (always available — boundary shells, wavefront row ends, and the
    full fallback all use it) plus the schedule class the executors
    dispatch on.  Under [Interpret] every point goes through
    [eval]/[guard] and the statement classifies [Sc_guarded]. *)
let compile_stmt ~schedule (b : binder) ~(target : Grid.t) ~(accum : bool)
    (idx : A.index list) (e : A.expr) : stmt_exec =
  match schedule with
  | Interpret ->
    let env, env_point = env_of_binder b in
    let guarded p =
      env_point := p;
      let w = access_coords env p idx in
      if Grid.in_bounds target w && guard env p e then
        if accum then Grid.set target w (Grid.get target w +. eval env p e)
        else Grid.set target w (eval env p e)
    in
    { sx_class = Sc_guarded; sx_guarded = guarded; sx_row = no_row }
  | Rows { wavefront = wavefront_on; _ } ->
    let rank = List.length b.binder_iters in
    let wpath = access_path b target idx in
    let reads = read_paths b e in
    let rpaths = reads.rp_list in
    let reads_temp = expr_reads_temp b e in
    let cls =
      if
        order_independent ~rank ~target ~wspec:wpath.ap_spec ~reads_temp rpaths
      then `Split
      else if wavefront_on then (
        match self_deltas ~rank ~target ~wspec:wpath.ap_spec rpaths with
        | Some deltas -> (
          match Static.hyperplane ~rank deltas with
          | Some vec -> `Wavefront vec
          | None -> `Guarded)
        | None -> `Guarded)
      else `Guarded
    in
    let wavefront = match cls with `Wavefront _ -> true | `Split | `Guarded -> false in
    let ss = split_of b ~target ~wavefront wpath reads e in
    let row = run_row ~accum ss in
    (* A guarded point is a row of length 1 once the write and every
       read are in bounds there, so its flat indices are valid. *)
    let checks = Array.of_list ss.ss_paths in
    let guarded p = if paths_in_bounds checks p then row p 1 in
    match cls with
    | `Split -> { sx_class = Sc_split ss; sx_guarded = guarded; sx_row = row }
    | `Wavefront vec ->
      { sx_class = Sc_wavefront (ss, vec); sx_guarded = guarded; sx_row = row }
    | `Guarded -> { sx_class = Sc_guarded; sx_guarded = guarded; sx_row = no_row }
