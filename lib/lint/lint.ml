(* Whole-pipeline stencil diagnostics.

   The analyses deliberately mirror the modules whose behaviour they
   judge: interiors are clipped exactly as Launch.geometry clips them,
   staging decisions come from Launch.buffers, occupancy feasibility from
   Occupancy.max_regs_for_occupancy, and launch findings wrap
   Validate.violations one-to-one.  That keeps the linter sound against
   the pipeline by construction: an Error here means the pipeline itself
   would misbehave, not that the linter models it differently. *)

module A = Artemis_dsl.Ast
module I = Artemis_dsl.Instantiate
module An = Artemis_dsl.Analysis
module D = Artemis_dsl.Depgraph
module P = Artemis_ir.Plan
module Validate = Artemis_ir.Validate
module Launch = Artemis_ir.Launch
module Facts = Artemis_ir.Kernel_facts
module Estimate = Artemis_ir.Estimate
module Occupancy = Artemis_gpu.Occupancy
module Coalesce = Artemis_gpu.Coalesce
module Json = Artemis_obs.Json
module Metrics = Artemis_obs.Metrics
module S = Artemis_static.Static
module F = Artemis_fuse.Fusion

type severity =
  | Error
  | Warning
  | Info

type phase =
  | Dsl
  | Plan

type finding = {
  code : string;
  severity : severity;
  phase : phase;
  location : string;
  message : string;
  hint : string;
}

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let phase_to_string = function
  | Dsl -> "dsl"
  | Plan -> "plan"

let catalog =
  [ ("A001", Error, "semantic violation reported by the checker");
    ("A101", Warning,
     "shared-memory RAW hazard: a statement reads a shared-staged array at an \
      in-plane offset after an earlier statement wrote it, with no barrier \
      between body statements in the emitted kernel");
    ("A102", Warning,
     "shared-memory WAR hazard: a statement overwrites a shared-staged array \
      that earlier statements read at an in-plane offset");
    ("A103", Error,
     "uninitialized read: a kernel reads an array that is neither copied in \
      nor computed by an earlier launch");
    ("A104", Error,
     "call to an intrinsic the backends do not implement, or with the wrong \
      number of arguments: execution would fail at runtime");
    ("A201", Warning,
     "access outside the array's allocated extent: the emitted per-statement \
      guard silently skips those points");
    ("A202", Error, "empty interior: the stencil halo consumes the whole domain");
    ("A203", Info, "fused kernel recomputes a halo (the cost of overlapped tiling)");
    ("A301", Warning, "dead statement: contributes to no kernel output");
    ("A302", Warning, "declaration never used by the host program");
    ("A303", Warning, "stencil formal never used in the body");
    ("A304", Warning, "stencil defined but never applied");
    ("A305", Warning, "dead store: array written but never read back or copied out");
    ("A401", Error, "occupancy pragma target unreachable on this device");
    ("A402", Warning, "predicted register spills to local memory");
    ("A403", Error, "shared staging exceeds the device's per-block shared memory");
    ("A404", Info, "achieved occupancy below the pragma target");
    ("A405", Error, "plan violates a device launch limit");
    ("A501", Warning, "uncoalesced global reads along the fastest thread dimension");
    ("A502", Warning, "bank-conflict-prone shared-memory row width");
    ("A601", Info,
     "statement carries a uniform self-dependence and executes via the \
      wavefront schedule");
    ("A602", Error,
     "self-dependence admits no hyperplane compatible with the executors' \
      sweep orders: results depend on traversal order");
    ("A701", Error,
     "statically dead access: the affine analyzer proves the access lands \
      outside its array at every point of the domain, so the guard turns \
      the statement into a silent no-op");
    ("A702", Warning,
     "read of a region that no copy-in or earlier launch must-writes: the \
      statement consumes cells the program never computed");
    ("A703", Error,
     "static race: a statically proven dependence that the plan's tile \
      fan-out or chosen wavefront hyperplane would execute out of order");
    ("A801", Info,
     "statement executes under degree-N temporal blocking: each launch \
      advances the ping-pong pair several inner time steps under the named \
      halo policy");
    ("A802", Error,
     "temporal blocking requested across a dependence that forbids it: the \
      inner time steps cannot proceed tile-independently") ]

(* ------------------------------------------------------------------ *)
(* Finding sink: ordered, deduplicated, counted.                       *)
(* ------------------------------------------------------------------ *)

type sink = {
  mutable acc : finding list;  (* newest first *)
  seen : (string * string * string, unit) Hashtbl.t;
}

let sink () = { acc = []; seen = Hashtbl.create 16 }

let m_findings code = Metrics.counter "lint.findings" ~labels:[ ("code", code) ]

let add s f =
  let key = (f.code, f.location, f.message) in
  if not (Hashtbl.mem s.seen key) then begin
    Hashtbl.add s.seen key ();
    Metrics.incr (m_findings f.code);
    s.acc <- f :: s.acc
  end

let emit s ~code ~severity ~phase ~location ~hint message =
  add s { code; severity; phase; location; message; hint }

let drain s = List.rev s.acc

let semantic_findings ~location ds =
  List.map
    (fun (d : Artemis_dsl.Diagnostic.t) ->
      {
        code = "A001";
        severity = Error;
        phase = Dsl;
        location;
        message = d.message;
        hint = "fix the program; `artemisc check` lists all violations";
      })
    ds

(* ------------------------------------------------------------------ *)
(* Kernel-level analyses                                               *)
(* ------------------------------------------------------------------ *)

let iter_index (k : I.kernel) it = List.find_index (String.equal it) k.iters

(* Every (array, binding, kind) access of the body: reads via Analysis,
   writes from the assignment targets (Analysis only collects reads). *)
let all_accesses (k : I.kernel) =
  let binding_of idx =
    Array.of_list (List.map (fun (i : A.index) -> (i.iter, i.shift)) idx)
  in
  let reads =
    List.map
      (fun (a : An.access) -> (a.array, a.binding, "read"))
      (Facts.of_kernel k).read_accesses
  in
  let writes =
    List.filter_map
      (function
        | A.Assign (a, idx, _) | A.Accum (a, idx, _) -> Some (a, binding_of idx, "write")
        | A.Decl_temp _ -> None)
      k.body
  in
  reads @ writes

let bounds_lints s (k : I.kernel) =
  let loc = "kernel " ^ k.kname in
  let { Facts.interior_lo = ilo; interior_hi = ihi; _ } = Facts.of_kernel k in
  let empty = ref false in
  Array.iteri
    (fun d l ->
      if ihi.(d) < l then begin
        empty := true;
        emit s ~code:"A202" ~severity:Error ~phase:Dsl ~location:loc
          ~hint:
            "enlarge the domain or reduce the stencil order; no interior point \
             remains after clipping the halo"
          (Printf.sprintf
             "dimension %d has no interior: domain extent %d leaves the interior \
              [%d, %d] empty"
             d k.domain.(d) l ihi.(d))
      end)
    ilo;
  (* Bounds are only meaningful over a non-empty interior. *)
  if not !empty then
    List.iter
      (fun (arr, binding, kind) ->
        match List.assoc_opt arr k.arrays with
        | None -> ()
        | Some dims when Array.length dims <> Array.length binding -> ()
        | Some dims ->
          Array.iteri
            (fun j (it, shift) ->
              let ext = dims.(j) in
              match it with
              | None ->
                if shift < 0 || shift >= ext then
                  emit s ~code:"A201" ~severity:Warning ~phase:Dsl ~location:loc
                    ~hint:"use a constant index inside the array extent"
                    (Printf.sprintf
                       "%s of %s: constant index %d outside dimension %d of extent %d"
                       kind arr shift j ext)
              | Some itname -> (
                match iter_index k itname with
                | None -> ()
                | Some d ->
                  let first = ilo.(d) + shift and last = ihi.(d) + shift in
                  if first < 0 || last >= ext then
                    emit s ~code:"A201" ~severity:Warning ~phase:Dsl ~location:loc
                      ~hint:
                        "size the array to cover the shifted interior, or reduce \
                         the shift; the per-statement bounds guard skips the \
                         affected points"
                      (Printf.sprintf
                         "%s of %s spans [%d, %d] along dimension %d, outside its \
                          extent %d"
                         kind arr first last j ext)))
            binding)
      (all_accesses k)

let fusion_lints s (k : I.kernel) =
  let h = (Facts.of_kernel k).recompute_halo in
  if h > 0 then
    emit s ~code:"A203" ~severity:Info ~phase:Dsl ~location:("kernel " ^ k.kname)
      ~hint:
        "overlapped tiling recomputes intermediate halo points; deep tuning \
         weighs this against the saved global traffic"
      (Printf.sprintf "fused intermediates require a recomputation halo of width %d" h)

let dead_statement_lints s (k : I.kernel) =
  let g = D.build k.body in
  let live = Hashtbl.create 16 in
  List.iter
    (fun o -> List.iter (fun (n : D.node) -> Hashtbl.replace live n.id ()) (D.backward_slice g o))
    (D.output_nodes g k);
  Array.iter
    (fun (n : D.node) ->
      if not (Hashtbl.mem live n.id) then
        emit s ~code:"A301" ~severity:Warning ~phase:Dsl
          ~location:("kernel " ^ k.kname)
          ~hint:"remove the statement, or use its result in an output"
          (Printf.sprintf "statement %d (defines %s) contributes to no kernel output"
             n.id n.defines))
    g.nodes

(* A104: every call must name a [Check.intrinsics] entry with matching
   arity — the set both evaluators dispatch on.  The parser's checker
   already rejects such programs, so this fires on hand-built or
   transform-produced kernels, turning what would be an
   [Eval.Unknown_intrinsic] crash mid-execution into a diagnostic. *)
let intrinsic_lints s (k : I.kernel) =
  let loc = "kernel " ^ k.kname in
  let rec walk (e : A.expr) =
    match e with
    | A.Const _ | A.Scalar_ref _ | A.Access _ -> ()
    | A.Neg e1 -> walk e1
    | A.Bin (_, e1, e2) ->
      walk e1;
      walk e2
    | A.Call (f, args) ->
      (match List.assoc_opt f Artemis_dsl.Check.intrinsics with
      | None ->
        emit s ~code:"A104" ~severity:Error ~phase:Dsl ~location:loc
          ~hint:"use a supported math intrinsic (sqrt, fabs, exp, log, ...)"
          (Printf.sprintf "call to unknown intrinsic '%s'" f)
      | Some arity when arity <> List.length args ->
        emit s ~code:"A104" ~severity:Error ~phase:Dsl ~location:loc
          ~hint:"pass the intrinsic's documented argument count"
          (Printf.sprintf "intrinsic '%s' expects %d argument(s), got %d" f arity
             (List.length args))
      | Some _ -> ());
      List.iter walk args
  in
  List.iter
    (function
      | A.Decl_temp (_, e) | A.Assign (_, _, e) | A.Accum (_, _, e) -> walk e)
    k.body

(* A601/A602: self-dependence schedulability, from the affine engine's
   verdict ([S.self_dependences]) — the one the executors schedule by.  A
   uniform cone whose distances are componentwise same-signed is handled
   by the wavefront schedule (Info); a position-dependent distance, or a
   mixed-sign cone (legal for the reference's point-lexicographic sweep
   but not for the block executor's tile order), has no hyperplane every
   executor can honour, so results depend on traversal order (Error). *)
let wavefront_lints s (k : I.kernel) =
  let loc = "kernel " ^ k.kname in
  let rank = Array.length k.domain in
  List.iteri
    (fun n (st, dep) ->
      let target = match st with
        | A.Assign (a, _, _) | A.Accum (a, _, _) -> a
        | A.Decl_temp (t, _) -> t
      in
      match dep with
      | S.No_dep -> ()
      | S.Uniform deltas when S.band_safe deltas -> (
        match S.hyperplane ~rank deltas with
        | Some vec ->
          emit s ~code:"A601" ~severity:Info ~phase:Dsl ~location:loc
            ~hint:
              "wavefronts preserve the sequential order bit for bit at \
               reduced parallelism; use distinct input/output buffers \
               (iterate/swap) for a fully parallel sweep"
            (Printf.sprintf
               "statement %d (writes %s) executes via the wavefront schedule, \
                hyperplane (%s)"
               n target
               (String.concat ", "
                  (List.map string_of_int (Array.to_list vec))))
        | None ->
          emit s ~code:"A602" ~severity:Error ~phase:Dsl ~location:loc
            ~hint:"break the self-dependence with distinct input/output buffers"
            (Printf.sprintf
               "statement %d (writes %s): dependence cone admits no legal \
                hyperplane"
               n target))
      | S.Uniform _ ->
        emit s ~code:"A602" ~severity:Error ~phase:Dsl ~location:loc
          ~hint:"break the self-dependence with distinct input/output buffers"
          (Printf.sprintf
             "statement %d (writes %s): mixed-sign self-dependence has no \
              hyperplane compatible with the executors' sweep orders"
             n target)
      | S.Unknown ->
        emit s ~code:"A602" ~severity:Error ~phase:Dsl ~location:loc
          ~hint:"break the self-dependence with distinct input/output buffers"
          (Printf.sprintf
             "statement %d (writes %s): position-dependent self-dependence \
              has no constant hyperplane"
             n target))
    (List.combine k.body (Facts.of_kernel k).self_deps)

(* ------------------------------------------------------------------ *)
(* Affine-analyzer (A7xx) passes                                        *)
(* ------------------------------------------------------------------ *)

let point_str p =
  "(" ^ String.concat ", " (List.map string_of_int (Array.to_list p)) ^ ")"

let deltas_str ds =
  String.concat ", " (List.map point_str ds)

let stmt_target = function
  | A.Assign (a, _, _) | A.Accum (a, _, _) -> a
  | A.Decl_temp (t, _) -> t

(* A701: the affine analyzer's per-access feasibility test is empty over
   the whole (non-empty) domain — the access can never be in bounds, so
   the guard silently turns the statement into a no-op at every point.
   Unlike A201 (some points clipped, Warning) this is a proof that no
   point survives, hence Error, and each finding carries a concrete
   witness point. *)
let static_oob_lints s (k : I.kernel) =
  let loc = "kernel " ^ k.kname in
  List.iter
    (fun (o : S.oob) ->
      emit s ~code:"A701" ~severity:Error ~phase:Dsl ~location:loc
        ~hint:
          "the guard rejects every domain point, so the statement never \
           touches this access; fix the index or enlarge the array"
        (Printf.sprintf
           "statement %d: access of %s is out of bounds at every domain point \
            — at %s, dimension %d resolves to index %d outside extent %d"
           o.S.oob_stmt o.S.oob_array
           (point_str o.S.oob_witness)
           o.S.oob_dim o.S.oob_index o.S.oob_extent))
    (S.never_in_bounds k)

(* A702: region-level must-read-before-must-write dataflow across the
   host schedule.  [S.uninit_reads] accumulates the union of copy-in and
   must-written boxes per array launch by launch (time loops unrolled to
   the ping-pong fixpoint); a read whose region escapes that cover
   consumes cells no one computed.  Warning, not Error: the executors
   still produce defined values (stores are deterministically
   initialized), unlike A103's array never initialized at all. *)
let static_uninit_lints s (prog : A.program) sched =
  List.iter
    (fun (u : S.uninit) ->
      emit s ~code:"A702" ~severity:Warning ~phase:Dsl
        ~location:("kernel " ^ u.S.un_kernel)
        ~hint:
          (Printf.sprintf
             "copyin %s, or have an earlier launch write the whole read region"
             u.S.un_array)
        (Printf.sprintf
           "statement %d reads %s over %s, a region no copy-in or earlier \
            launch must-writes"
           u.S.un_stmt u.S.un_array
           (S.box_to_string u.S.un_region)))
    (S.uninit_reads prog sched)

let lint_kernel k =
  let s = sink () in
  bounds_lints s k;
  fusion_lints s k;
  dead_statement_lints s k;
  intrinsic_lints s k;
  wavefront_lints s k;
  static_oob_lints s k;
  drain s

(* ------------------------------------------------------------------ *)
(* Program-level analyses                                              *)
(* ------------------------------------------------------------------ *)

let decl_name = function
  | A.Array_decl (n, _) -> n
  | A.Scalar_decl n -> n

(* A103: walk the schedule in program order tracking which arrays hold
   defined data (copyin, then anything a launch writes; Exchange swaps
   the property with the buffer names). *)
let uninitialized_read_lints s (prog : A.program) sched =
  let initialized = Hashtbl.create 16 in
  List.iter (fun a -> Hashtbl.replace initialized a ()) prog.copyin;
  let reported = Hashtbl.create 8 in
  let rec walk items =
    List.iter
      (function
        | I.Exchange (a, b) ->
          let ia = Hashtbl.mem initialized a and ib = Hashtbl.mem initialized b in
          if ib then Hashtbl.replace initialized a () else Hashtbl.remove initialized a;
          if ia then Hashtbl.replace initialized b () else Hashtbl.remove initialized b
        | I.Repeat (n, sub) -> if n > 0 then walk sub
        | I.Launch (k : I.kernel) ->
          (* First read / first write position of each array in body order;
             an accumulation reads its own target. *)
          let first_read = Hashtbl.create 8 and first_write = Hashtbl.create 8 in
          let note tbl a i = if not (Hashtbl.mem tbl a) then Hashtbl.add tbl a i in
          List.iteri
            (fun i stmt ->
              A.fold_stmt_exprs
                (fun () e ->
                  List.iter (fun (arr, _) -> note first_read arr i) (A.reads_of_expr e))
                () stmt;
              (match stmt with
               | A.Accum (a, _, _) -> note first_read a i
               | A.Assign _ | A.Decl_temp _ -> ());
              match A.written_array stmt with
              | Some a -> note first_write a i
              | None -> ())
            k.body;
          Hashtbl.iter
            (fun arr ri ->
              let external_read =
                match Hashtbl.find_opt first_write arr with
                | None -> true
                | Some wi -> ri <= wi
              in
              if
                external_read
                && List.mem_assoc arr k.arrays
                && (not (Hashtbl.mem initialized arr))
                && not (Hashtbl.mem reported arr)
              then begin
                Hashtbl.add reported arr ();
                emit s ~code:"A103" ~severity:Error ~phase:Dsl
                  ~location:("kernel " ^ k.kname)
                  ~hint:
                    (Printf.sprintf "add `copyin %s` or compute %s before this launch"
                       arr arr)
                  (Printf.sprintf "reads %s, which is neither copied in nor computed \
                                   by an earlier launch" arr)
              end)
            first_read;
          List.iter
            (fun stmt ->
              match A.written_array stmt with
              | Some a -> Hashtbl.replace initialized a ()
              | None -> ())
            k.body)
      items
  in
  walk sched

(* A305: arrays some launch writes that no launch ever reads, that are
   never exchanged (ping-pong buffers alternate roles), and that the
   program does not copy out — their values are unobservable. *)
let dead_store_lints s (prog : A.program) sched =
  let written = Hashtbl.create 16
  and read = Hashtbl.create 16
  and swapped = Hashtbl.create 8 in
  let rec walk items =
    List.iter
      (function
        | I.Exchange (a, b) ->
          Hashtbl.replace swapped a ();
          Hashtbl.replace swapped b ()
        | I.Repeat (_, sub) -> walk sub
        | I.Launch (k : I.kernel) ->
          List.iter
            (fun stmt ->
              A.fold_stmt_exprs
                (fun () e ->
                  List.iter (fun (arr, _) -> Hashtbl.replace read arr ()) (A.reads_of_expr e))
                () stmt;
              (match stmt with
               | A.Accum (a, _, _) -> Hashtbl.replace read a ()
               | A.Assign _ | A.Decl_temp _ -> ());
              match A.written_array stmt with
              | Some a -> Hashtbl.replace written a ()
              | None -> ())
            k.body)
      items
  in
  walk sched;
  Hashtbl.iter
    (fun arr () ->
      if
        (not (Hashtbl.mem read arr))
        && (not (Hashtbl.mem swapped arr))
        && not (List.mem arr prog.copyout)
      then
        emit s ~code:"A305" ~severity:Warning ~phase:Dsl ~location:"program"
          ~hint:(Printf.sprintf "copyout %s or drop the statements computing it" arr)
          (Printf.sprintf "%s is written but never read back or copied out" arr))
    written

let usage_lints s (prog : A.program) =
  (* A304: stencils never applied; A303: formals never used. *)
  let applied = Hashtbl.create 8 in
  let note_app = function
    | A.Apply (f, _) -> Hashtbl.replace applied f ()
    | A.Swap _ -> ()
  in
  List.iter
    (function
      | A.Run app -> note_app app
      | A.Iterate (_, apps) -> List.iter note_app apps)
    prog.main;
  List.iter
    (fun (st : A.stencil_def) ->
      if not (Hashtbl.mem applied st.sname) then
        emit s ~code:"A304" ~severity:Warning ~phase:Dsl
          ~location:("stencil " ^ st.sname)
          ~hint:"apply it from main, or delete the definition"
          (Printf.sprintf "stencil %s is defined but never applied" st.sname);
      let used = Hashtbl.create 8 in
      List.iter
        (fun stmt ->
          A.fold_stmt_exprs
            (fun () e ->
              List.iter (fun (a, _) -> Hashtbl.replace used a ()) (A.reads_of_expr e);
              List.iter (fun n -> Hashtbl.replace used n ()) (A.scalars_of_expr e))
            () stmt;
          match A.written_array stmt with
          | Some a -> Hashtbl.replace used a ()
          | None -> ())
        st.body;
      List.iter
        (fun f ->
          if not (Hashtbl.mem used f) then
            emit s ~code:"A303" ~severity:Warning ~phase:Dsl
              ~location:("stencil " ^ st.sname)
              ~hint:"drop the formal and the actual at every call site"
              (Printf.sprintf "formal %s is never used in the body" f))
        st.formals)
    prog.stencils;
  (* A302: declarations the host program never touches. *)
  let referenced = Hashtbl.create 16 in
  let note_ref = function
    | A.Apply (_, actuals) -> List.iter (fun a -> Hashtbl.replace referenced a ()) actuals
    | A.Swap (a, b) ->
      Hashtbl.replace referenced a ();
      Hashtbl.replace referenced b ()
  in
  List.iter
    (function
      | A.Run app -> note_ref app
      | A.Iterate (_, apps) -> List.iter note_ref apps)
    prog.main;
  List.iter (fun a -> Hashtbl.replace referenced a ()) prog.copyout;
  List.iter
    (fun d ->
      let n = decl_name d in
      if not (Hashtbl.mem referenced n) then
        emit s ~code:"A302" ~severity:Warning ~phase:Dsl ~location:"program"
          ~hint:"pass it to a stencil, copy it out, or remove the declaration"
          (Printf.sprintf "%s is declared but never used" n))
    prog.decls

let lint_program (prog : A.program) =
  let s = sink () in
  usage_lints s prog;
  let sched = I.schedule prog in
  uninitialized_read_lints s prog sched;
  dead_store_lints s prog sched;
  static_uninit_lints s prog sched;
  List.iter
    (fun k ->
      bounds_lints s k;
      fusion_lints s k;
      dead_statement_lints s k;
      wavefront_lints s k;
      static_oob_lints s k)
    (I.kernels sched);
  drain s

(* ------------------------------------------------------------------ *)
(* Plan-level analyses                                                 *)
(* ------------------------------------------------------------------ *)

let launch_hint = function
  | Validate.Too_many_threads _ -> "shrink the block extents"
  | Validate.Bad_block_dim _ -> "keep block extents within CUDA's per-dimension limits"
  | Validate.Shared_overflow _ ->
    "demote a staged array to global memory (#assign gmem) or shrink the tile"
  | Validate.Regs_overflow _ -> "lower maxrregcount to a device-supported step"
  | Validate.Zero_occupancy _ ->
    "reduce per-block registers or shared memory until one block fits on an SM"
  | Validate.Bad_stream_dim _ -> "stream along one of the kernel's own dimensions"
  | Validate.Bad_unroll _ -> "use unroll factors between 1 and 64"
  | Validate.Empty_tile _ -> "enlarge the block, unroll, or stream chunk"
  | Validate.Bad_degree _ ->
    "use a temporal degree of at least 1, with a ping-pong pair when above 1"

(* Shared_overflow gets its own code (A403) because it has a dedicated
   fix (demotion); every other launch violation is A405. *)
let launch_code = function Validate.Shared_overflow _ -> "A403" | _ -> "A405"

let launch_finding (p : P.t) v =
  {
    code = launch_code v;
    severity = Error;
    phase = Plan;
    location = P.label p;
    message = Validate.violation_to_string v;
    hint = launch_hint v;
  }

let launch_errors p =
  let s = sink () in
  List.iter (fun v -> add s (launch_finding p v)) (Validate.violations p);
  drain s

(* A703 (plan side): the static race detector the tuner prunes with.
   The block executor fans the plan's tile grid out tile-lexicographically
   and the wavefront schedule fans rows of one wavefront across the pool;
   a statically proven distance set that is not componentwise same-signed
   breaks the first, and a distance set no constant hyperplane orders
   breaks the second ([S.hyperplane] returns only vectors passing
   [S.schedule_ok]). *)
let static_plan_lints s (p : P.t) =
  let loc = P.label p in
  let k = p.kernel in
  let rank = Array.length k.domain in
  List.iteri
    (fun n (st, dep) ->
      match dep with
      | S.No_dep | S.Unknown -> ()
      | S.Uniform deltas ->
        if not (S.band_safe deltas) then
          emit s ~code:"A703" ~severity:Error ~phase:Plan ~location:loc
            ~hint:"break the self-dependence with distinct input/output buffers"
            (Printf.sprintf
               "statement %d (writes %s): tile fan-out would execute the \
                mixed-sign dependence distances {%s} out of order"
               n (stmt_target st) (deltas_str deltas))
        else if S.hyperplane ~rank deltas = None then
          emit s ~code:"A703" ~severity:Error ~phase:Plan ~location:loc
            ~hint:"break the self-dependence with distinct input/output buffers"
            (Printf.sprintf
               "statement %d (writes %s): no constant hyperplane orders the \
                statically proven distances {%s}"
               n (stmt_target st) (deltas_str deltas)))
    (List.combine k.body (Facts.of_kernel k).self_deps)

(* A802: degree-N temporal blocking across a forbidding dependence.  The
   legality test is [Fusion.block_illegal] — the same affine-engine check
   the fusion layer applies — so a blocked plan that lints clean really
   can advance its ping-pong pair [degree] steps per launch with
   tile-independent inner steps.  Part of [static_plan_errors], which the
   tuner prunes candidates with. *)
let temporal_race_lints s (p : P.t) =
  let tb = p.P.temporal in
  if tb.degree > 1 then
    match tb.pair with
    | None -> ()  (* Validate reports Bad_degree *)
    | Some (out, inp) -> (
      match F.block_illegal p.kernel ~out ~inp with
      | Some reason ->
        emit s ~code:"A802" ~severity:Error ~phase:Plan ~location:(P.label p)
          ~hint:
            "temporal blocking needs dependence-free inner time steps; keep \
             degree 1, or break the dependence with distinct input/output \
             buffers"
          (Printf.sprintf "temporal blocking at degree %d is illegal: %s"
             tb.degree reason)
      | None -> ())

(* A801: the blocked execution that survives A802, as an Info — which
   launches advance several time steps, under which halo policy. *)
let temporal_info_lints s (p : P.t) =
  let tb = p.P.temporal in
  if tb.degree > 1 then
    match tb.pair with
    | None -> ()
    | Some (out, inp) ->
      if F.block_illegal p.kernel ~out ~inp = None then
        emit s ~code:"A801" ~severity:Info ~phase:Plan ~location:(P.label p)
          ~hint:
            "each launch advances the ping-pong pair this many time steps; \
             `artemisc explain` shows the tuner's degree decision"
          (Printf.sprintf
             "kernel %s is temporally blocked at degree %d (halo policy: %s, \
              buffers: %s)"
             p.kernel.kname tb.degree
             (P.halo_policy_to_string tb.halo)
             (P.tbuffer_to_string tb.tbuf))

let static_plan_errors p =
  let s = sink () in
  static_plan_lints s p;
  temporal_race_lints s p;
  drain s

let occupancy_lints s (p : P.t) (res : Estimate.resources) =
  let loc = P.label p in
  if res.spilled_doubles > 0 then
    emit s ~code:"A402" ~severity:Warning ~phase:Plan ~location:loc
      ~hint:"raise maxrregcount, reduce unrolling, or fission the kernel"
      (Printf.sprintf
         "an estimated %d double(s) spill to local memory (needs %d registers, \
          capped at %d)"
         res.spilled_doubles res.regs_per_thread res.effective_regs);
  match p.kernel.pragma.occupancy with
  | None -> ()
  | Some target -> (
    match
      Occupancy.max_regs_for_occupancy p.device
        ~threads_per_block:(P.threads_per_block p)
        ~shared_per_block:res.shared_per_block ~target
    with
    | None ->
      emit s ~code:"A401" ~severity:Error ~phase:Plan ~location:loc
        ~hint:
          "lower the occupancy target, shrink the block, or demote shared arrays \
           — even 32 registers/thread cannot reach it"
        (Printf.sprintf
           "occupancy target %.2f is infeasible for %d threads/block with %d B of \
            shared memory"
           target (P.threads_per_block p) res.shared_per_block)
    | Some _ ->
      if res.occupancy.occupancy +. 1e-9 < target then
        emit s ~code:"A404" ~severity:Info ~phase:Plan ~location:loc
          ~hint:"step maxrregcount down (the tuner's register-stepping rule)"
          (Printf.sprintf
             "achieved occupancy %.2f is below the pragma target %.2f (limited by %s)"
             res.occupancy.occupancy target
             (Occupancy.limiter_to_string res.occupancy.limiter)))

(* Shared-staging hazards.  The emitter places barriers only at plane
   steps and after cooperative tile loads — never between dependent body
   statements — so a shared-staged array produced and then consumed at an
   in-plane offset is read by neighbouring threads without
   synchronization.  The block simulator executes points atomically and
   does not trip over this, hence Warning severity: it flags the emitted
   CUDA, not the simulated result. *)
let hazard_lints s (p : P.t) bufs =
  let loc = P.label p in
  let k = p.kernel in
  let staged =
    List.filter_map
      (fun (b : Launch.buffer) ->
        match b.staging with
        | Launch.Stage_tile _ -> Some b.array
        | Launch.Stage_stream { shared_planes = _ :: _; _ } -> Some b.array
        | _ -> None)
      bufs
  in
  if staged <> [] then begin
    let stream = P.stream_dim p in
    let inplane_offset (a : An.access) =
      let off = An.offset_vector k.iters a in
      Array.exists
        (fun d -> off.(d) <> 0 && stream <> Some d)
        (Array.init (Array.length off) Fun.id)
    in
    let written = Hashtbl.create 8 and read_off = Hashtbl.create 8 in
    List.iteri
      (fun j stmt ->
        List.iter
          (fun (a : An.access) ->
            if List.mem a.array staged && inplane_offset a then begin
              (match Hashtbl.find_opt written a.array with
               | Some wj ->
                 emit s ~code:"A101" ~severity:Warning ~phase:Plan ~location:loc
                   ~hint:
                     (Printf.sprintf
                        "read %s from global memory (#assign gmem) or split the \
                         producer into its own kernel"
                        a.array)
                   (Printf.sprintf
                      "statement %d reads shared-staged %s at an in-plane offset \
                       after statement %d wrote it, with no barrier in between"
                      j a.array wj)
               | None -> ());
              Hashtbl.replace read_off a.array j
            end)
          (An.accesses_of_stmt stmt);
        match A.written_array stmt with
        | Some a when List.mem a staged ->
          (match Hashtbl.find_opt read_off a with
           | Some rj ->
             emit s ~code:"A102" ~severity:Warning ~phase:Plan ~location:loc
               ~hint:
                 (Printf.sprintf
                    "write %s once, or stage the offset reads from a separate buffer"
                    a)
               (Printf.sprintf
                  "statement %d overwrites shared-staged %s while statement %d reads \
                   it at an in-plane offset"
                  j a rj)
           | None -> ());
          Hashtbl.replace written a j
        | _ -> ())
      k.body
  end

(* A501: a read whose fastest-iterator index lands on a non-last array
   dimension makes consecutive lanes stride through memory; quantify the
   sector cost with the coalescing model. *)
let coalesce_lints s (p : P.t) bufs =
  let loc = P.label p in
  let k = p.kernel in
  let rank = P.rank p in
  let df = rank - 1 in
  if p.block.(df) >= 2 && P.stream_dim p <> Some df then begin
    let fast_iter = List.nth k.iters df in
    let lanes = min 32 p.block.(df) in
    List.iter
      (fun (b : Launch.buffer) ->
        match b.staging with
        | Launch.Stage_global -> (
          match List.assoc_opt b.array k.arrays with
          | None -> ()
          | Some dims ->
            let stride_of (a : An.access) =
              if a.array <> b.array then 0
              else
                let n = Array.length a.binding in
                let stride = ref 0 in
                Array.iteri
                  (fun j (it, _) ->
                    if it = Some fast_iter then begin
                      let sz = ref 1 in
                      for j' = j + 1 to n - 1 do
                        sz := !sz * dims.(j')
                      done;
                      stride := max !stride !sz
                    end)
                  a.binding;
                !stride
            in
            let worst =
              List.fold_left
                (fun acc a -> max acc (stride_of a))
                0 (Facts.of_kernel k).read_accesses
            in
            if worst > 1 then begin
              let sectors =
                Coalesce.strided_sectors ~elem_bytes:8 ~first:0 ~lanes ~stride:worst
              in
              let contiguous = Coalesce.run_sectors ~elem_bytes:8 ~first:0 ~n:lanes in
              if sectors > contiguous then
                emit s ~code:"A501" ~severity:Warning ~phase:Plan ~location:loc
                  ~hint:
                    (Printf.sprintf
                       "index %s's last dimension with the fastest iterator, or \
                        stage it (#assign shmem)"
                       b.array)
                  (Printf.sprintf
                     "reads of %s stride %d element(s) between lanes: a warp row \
                      touches %d sectors where a contiguous row needs %d"
                     b.array worst sectors contiguous)
            end)
        | _ -> ())
      bufs
  end

(* A502: shared rows whose width in 8-byte elements is a multiple of the
   16 bank groups put every row's column i in the same banks. *)
let bank_lints s (p : P.t) g bufs =
  let loc = P.label p in
  let rank = P.rank p in
  let df = rank - 1 in
  if rank >= 2 && P.stream_dim p <> Some df then
    List.iter
      (fun (b : Launch.buffer) ->
        let width =
          match b.staging with
          | Launch.Stage_tile { halo } ->
            let lo, hi = halo.(df) in
            Some (g.Launch.tile.(df) + (hi - lo))
          | Launch.Stage_stream { shared_planes = _ :: _; halo; _ } ->
            let lo, hi = halo.(df) in
            Some ((p.block.(df) * p.unroll.(df)) + (hi - lo))
          | _ -> None
        in
        match width with
        | Some w when w >= 16 && w mod 16 = 0 ->
          emit s ~code:"A502" ~severity:Warning ~phase:Plan ~location:loc
            ~hint:
              "choose a block width so the staged row is not a multiple of 16 \
               doubles (the shared banks repeat every 16 eight-byte words)"
            (Printf.sprintf
               "shared buffer for %s has rows of %d doubles — column-wise \
                accesses serialize on the same banks"
               b.array w)
        | _ -> ())
      bufs

let lint_plan (p : P.t) =
  let s = sink () in
  let vs = Validate.violations p in
  List.iter (fun v -> add s (launch_finding p v)) vs;
  static_plan_lints s p;
  temporal_race_lints s p;
  temporal_info_lints s p;
  let shape_ok =
    List.for_all
      (function
        | Validate.Too_many_threads _ | Validate.Bad_block_dim _
        | Validate.Bad_unroll _ | Validate.Bad_stream_dim _
        | Validate.Empty_tile _ | Validate.Bad_degree _ ->
          false
        | Validate.Shared_overflow _ | Validate.Regs_overflow _
        | Validate.Zero_occupancy _ ->
          true)
      vs
  in
  (* Resource and staging analyses need a sane shape to be meaningful. *)
  if shape_ok then begin
    let res = Estimate.resources p in
    let g = Launch.geometry p in
    let bufs = Launch.buffers p in
    occupancy_lints s p res;
    hazard_lints s p bufs;
    coalesce_lints s p bufs;
    bank_lints s p g bufs
  end;
  drain s

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let errors fs = List.filter (fun f -> f.severity = Error) fs

let finding_to_string f =
  Printf.sprintf "%s %-7s [%s] %s: %s%s" f.code
    (severity_to_string f.severity)
    (phase_to_string f.phase) f.location f.message
    (if f.hint = "" then "" else "\n      hint: " ^ f.hint)

let severity_rank = function
  | Error -> 0
  | Warning -> 1
  | Info -> 2

let phase_rank = function
  | Dsl -> 0
  | Plan -> 1

(* Canonical rendering order: (phase, code, location), then the
   remaining fields as tiebreakers, with exact duplicates dropped — so
   concatenating finding lists from several analyses (or running them in
   a different order) renders byte-identically. *)
let order_key f =
  (phase_rank f.phase, f.code, f.location, severity_rank f.severity, f.message,
   f.hint)

let normalize fs =
  let sorted = List.sort (fun a b -> compare (order_key a) (order_key b)) fs in
  let rec dedup = function
    | a :: (b :: _ as rest) -> if a = b then dedup rest else a :: dedup rest
    | ([ _ ] | []) as l -> l
  in
  dedup sorted

let report fs =
  match normalize fs with
  | [] -> "no findings\n"
  | fs ->
    let count sev = List.length (List.filter (fun f -> f.severity = sev) fs) in
    String.concat "\n" (List.map finding_to_string fs)
    ^ Printf.sprintf "\n%d error(s), %d warning(s), %d info\n" (count Error)
        (count Warning) (count Info)

let finding_to_json f =
  Json.Obj
    [ ("code", Json.Str f.code);
      ("severity", Json.Str (severity_to_string f.severity));
      ("phase", Json.Str (phase_to_string f.phase));
      ("location", Json.Str f.location);
      ("message", Json.Str f.message);
      ("hint", Json.Str f.hint) ]

let findings_to_json fs =
  let fs = normalize fs in
  let count sev = List.length (List.filter (fun f -> f.severity = sev) fs) in
  Json.Obj
    [ ("schema_version", Json.Int 1);
      ("errors", Json.Int (count Error));
      ("warnings", Json.Int (count Warning));
      ("findings", Json.List (List.map finding_to_json fs)) ]
