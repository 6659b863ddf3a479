(* Kernel fusion (paper, Section VI-A).

   Temporal fusion of an iterative stencil turns the ping-pong pattern
   [iterate T { S(out, in); swap(out, in) }] into launches of a fused
   kernel that applies S x times per sweep, holding the x-1 intermediate
   sweeps in on-chip scratch arrays.  Representing the fused kernel as an
   ordinary multi-statement body lets every later phase (halo analysis,
   staging, traffic, execution) treat temporal and spatial (DAG) fusion
   uniformly: the recomputation halo appears automatically through
   [Analysis.required_extents].

   Spatial (DAG) fusion concatenates the bodies of same-domain kernels;
   producer arrays become intermediates staged on chip. *)

module A = Artemis_dsl.Ast
module I = Artemis_dsl.Instantiate
module S = Artemis_static.Static
module Plan = Artemis_ir.Plan
module Trace = Artemis_obs.Trace

exception Fusion_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Fusion_error s)) fmt

let intermediate_name base s = Printf.sprintf "__%s_t%d" base s

(** [time_fuse k ~out ~inp ~f] — fuse [f] applications of the single-step
    kernel [k] (which reads [inp] and writes [out]).  Steps 1..f-1 write
    fresh intermediate arrays; step [s] reads step [s-1]'s output.  The
    result is semantically the composition of [f] sweeps up to domain
    boundary effects (intermediates are zero-initialized where a sweep's
    guard fails, while the ping-pong original would retain stale buffer
    contents there), so comparisons are meaningful on the deep interior. *)
let time_fuse (k : I.kernel) ~out ~inp ~f =
  if f < 1 then fail "time_fuse: non-positive fusion degree %d" f;
  if not (List.mem_assoc out k.arrays) then fail "time_fuse: unknown output %s" out;
  if not (List.mem_assoc inp k.arrays) then fail "time_fuse: unknown input %s" inp;
  if f = 1 then { k with kname = k.kname }
  else begin
    let dims =
      match List.assoc_opt out k.arrays with
      | Some d -> d
      | None -> assert false
    in
    let rename_temps s e =
      (* Scalars that are local temporaries of the body need the step tag;
         runtime scalar arguments must not be renamed. *)
      let temps =
        List.filter_map
          (function A.Decl_temp (n, _) -> Some n | A.Assign _ | A.Accum _ -> None)
          k.body
      in
      let mapping = List.map (fun t -> (t, Printf.sprintf "%s_s%d" t s)) temps in
      A.subst_names mapping e
    in
    let step s =
      (* step s in 1..f: reads prev, writes next *)
      let prev = if s = 1 then inp else intermediate_name k.kname (s - 1) in
      let next = if s = f then out else intermediate_name k.kname s in
      let mapping = [ (inp, prev); (out, next) ] in
      List.map
        (fun st ->
          match st with
          | A.Decl_temp (n, e) ->
            (* Temporaries get per-step names to avoid redefinition. *)
            A.Decl_temp
              (Printf.sprintf "%s_s%d" n s, rename_temps s (A.subst_names mapping e))
          | A.Assign (a, idx, e) ->
            let a' = match List.assoc_opt a mapping with Some x -> x | None -> a in
            A.Assign (a', idx, rename_temps s (A.subst_names mapping e))
          | A.Accum (a, idx, e) ->
            let a' = match List.assoc_opt a mapping with Some x -> x | None -> a in
            A.Accum (a', idx, rename_temps s (A.subst_names mapping e)))
        k.body
    in
    let body = List.concat_map step (List.init f (fun i -> i + 1)) in
    let inter_arrays =
      List.init (f - 1) (fun i -> (intermediate_name k.kname (i + 1), dims))
    in
    {
      k with
      kname = Printf.sprintf "%s_x%d" k.kname f;
      body;
      arrays = k.arrays @ inter_arrays;
    }
  end

(** Detect the ping-pong pattern in a schedule item: [Repeat (T, [Launch k;
    Exchange (out, inp)])] with [k] writing [out] and reading [inp].  A body
    writing {e both} exchanged buffers is not a ping-pong — neither buffer is
    a pure sweep input, so time-fusing it would change semantics — and is
    rejected rather than guessed at. *)
let pingpong_of_item = function
  | I.Repeat (t, [ I.Launch k; I.Exchange (a, b) ]) ->
    let written = List.filter_map A.written_array k.body in
    let read = I.read_arrays_of_body k.body in
    let reject reason =
      Trace.instant "fusion.pingpong_rejected"
        ~attrs:
          [ ("kernel", Str k.kname); ("reason", Str reason);
            ("buffers", Str (a ^ "," ^ b)) ];
      None
    in
    let writes_a = List.mem a written and writes_b = List.mem b written in
    if writes_a && writes_b then reject "body-writes-both-exchange-buffers"
    else if writes_a then
      (* The sweep must consume the previous iteration through the other
         buffer; otherwise the time loop isn't a ping-pong and time_fuse
         has no input to chain. *)
      if List.mem b read then Some (t, k, a, b)
      else reject "exchange-input-never-read"
    else if writes_b then
      if List.mem a read then Some (t, k, b, a)
      else reject "exchange-input-never-read"
    else None
  | I.Repeat _ | I.Launch _ | I.Exchange _ -> None

(** Replace a ping-pong time loop with fused launches following a fusion
    [schedule] (segment sizes summing to the iteration count).  Each fused
    launch is followed by one swap, preserving the result's final buffer
    up to swap parity (callers compare the post-swap [inp] buffer). *)
let fuse_pingpong (t, k, out, inp) ~schedule =
  let total = List.fold_left ( + ) 0 schedule in
  if total <> t then fail "fusion schedule covers %d of %d iterations" total t;
  List.concat_map
    (fun x -> [ I.Launch (time_fuse k ~out ~inp ~f:x); I.Exchange (out, inp) ])
    schedule

(* ------------------------------------------------------------------ *)
(* Degree-N temporal blocking (AN5D)                                    *)
(* ------------------------------------------------------------------ *)

(* All array accesses read anywhere in the body, with their index lists. *)
let body_reads (k : I.kernel) =
  List.concat_map
    (fun st -> A.fold_stmt_exprs (fun acc e -> A.reads_of_expr e @ acc) [] st)
    k.body

let delta_to_string d =
  "(" ^ String.concat "," (List.map string_of_int (Array.to_list d)) ^ ")"

(** Why degree-N temporal blocking of [k]'s ping-pong loop is forbidden,
    if it is.  A statement carrying a self-dependence (Gauss-Seidel/SOR)
    imposes an in-step point order that independently-tiled b-step
    trapezoids cannot honor, and a body reading the produced buffer
    couples consecutive steps through it — both are modeled as
    independent per-tile step pipelines, so either breaks the model. *)
let block_illegal (k : I.kernel) ~out ~inp:_ =
  let rec scan i = function
    | [] -> None
    | st :: rest -> (
      match S.self_dependences ~iters:k.iters st with
      | S.No_dep -> scan (i + 1) rest
      | S.Uniform ds ->
        Some
          (Printf.sprintf
             "statement %d carries a uniform self-dependence %s: inner time steps cannot proceed tile-independently"
             i
             (String.concat " " (List.map delta_to_string ds)))
      | S.Unknown ->
        Some
          (Printf.sprintf
             "statement %d has a position-dependent self-dependence" i))
  in
  match scan 0 k.body with
  | Some reason -> Some reason
  | None ->
    if List.mem out (I.read_arrays_of_body k.body) then
      Some
        (Printf.sprintf
           "body reads the produced buffer %s: consecutive time steps are coupled"
           out)
    else None

let block_legal (k : I.kernel) ~out ~inp = block_illegal k ~out ~inp = None

(** Per-step plane skew of the streamed interleaved traversal: the
    largest |stream-dimension shift| of any read, and at least 1 so
    consecutive steps never share a front plane. *)
let stream_skew (k : I.kernel) =
  let skew =
    List.fold_left
      (fun acc (_, idx) ->
        let spec = S.spec_of_index ~iters:k.iters idx in
        Array.fold_left
          (fun acc (dim, shift) -> if dim = 0 then max acc (abs shift) else acc)
          acc spec)
      0 (body_reads k)
  in
  max 1 skew

(** The body admits the streamed interleaved traversal (all [tb_degree]
    steps in flight over one sweep of the outer dimension): one [Assign]
    to [out] covering every iteration dimension at shift 0, per-point
    temporaries only, and every array read hitting [inp] — the jacobi
    family shape.  Anything else still blocks exactly, through the
    per-step fallback. *)
let stream_legal (k : I.kernel) ~out ~inp =
  block_legal k ~out ~inp
  && begin
       let rank = Array.length k.domain in
       let assigns, others_ok =
         List.fold_left
           (fun (assigns, ok) st ->
             match st with
             | A.Decl_temp _ -> (assigns, ok)
             | A.Assign (a, idx, _) -> ((a, idx) :: assigns, ok)
             | A.Accum _ -> (assigns, false))
           ([], true) k.body
       in
       others_ok
       && (match assigns with
          | [ (a, idx) ] ->
            a = out
            &&
            let spec = S.spec_of_index ~iters:k.iters idx in
            Array.length spec = rank
            && Array.for_all (fun (d, sh) -> d >= 0 && sh = 0) spec
            &&
            let seen = Array.make rank false in
            Array.iter
              (fun (d, _) -> if d >= 0 && d < rank then seen.(d) <- true)
              spec;
            Array.for_all Fun.id seen
          | _ -> false)
       && List.for_all (fun (a, _) -> a = inp) (body_reads k)
     end

