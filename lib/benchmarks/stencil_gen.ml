(* Synthetic stencil-body generator.

   The seven spatial benchmarks of Table I come from DoE mini-apps whose
   full sources are not reproduced in the paper; only their
   characteristics are published (stencil order, FLOPs per point, IO
   array count, structural notes like rhs4center's five 3-D inputs or
   Figure 3's shared temporaries mux1..muz4).  This module builds bodies
   matching those characteristics *exactly*: the FLOP count is padded to
   the published value, every 3-D input is read at the full +/-k star so
   the order and staging pressure are right, 1-D arrays are read at the
   center to reproduce SW4's mixed-dimensionality shape, and temporaries
   replicate the published dependence structure.  The suite's unit tests
   assert the generated characteristics equal Table I. *)

module A = Artemis_dsl.Ast
module An = Artemis_dsl.Analysis
module B = Artemis_dsl.Builder

(** Star sum of one array over all axes at distances 1..k: 6k reads plus
    the center, combined with per-shell weights — the canonical high-order
    access pattern. *)
let star_sum arr ~order ~w0 =
  let shell d =
    B.(
      sum
        [ a3 arr (d, 0, 0); a3 arr (-d, 0, 0); a3 arr (0, d, 0);
          a3 arr (0, -d, 0); a3 arr (0, 0, d); a3 arr (0, 0, -d) ])
  in
  let shells =
    List.init order (fun i ->
        let d = i + 1 in
        B.(c (w0 /. float_of_int d) * shell d))
  in
  B.sum (B.a3 arr (0, 0, 0) :: shells)

(* An expression with exactly [n >= 1] FLOPs reading only [arr] at the
   center, so neither the order nor the array set changes.  [salt] keeps
   the constants of different pad chains distinct, so no two generated
   statements are structurally equal (fission dedupes replicated
   statements structurally). *)
let pad_expr ?(salt = 0) arr n =
  if n < 1 then invalid_arg "pad_expr: need at least one flop";
  let w = 0.015625 /. float_of_int (salt + 1) in
  let rec build remaining acc =
    if remaining = 0 then acc
    else if remaining = 1 then B.(acc + a3 arr (0, 0, 0))
    else build (remaining - 2) B.(acc + (c w * a3 arr (0, 0, 0)))
  in
  build (n - 1) B.(c (0.5 +. (0.001 *. float_of_int salt)) * a3 arr (0, 0, 0))

let body_flops body = List.fold_left (fun acc st -> acc + An.flops_of_stmt st) 0 body

(** Pad [body] with accumulation statements onto the [outs] (reading
    [arr] at the center, cycling through the outputs so fission slices
    stay balanced) until it costs exactly [target] FLOPs.  Pad statements
    are capped at 32 FLOPs each, as a code generator splitting long
    accumulation chains would.  Raises when the body already exceeds the
    target. *)
let pad_to_outs ~target ~outs ~arr body =
  if outs = [] then invalid_arg "pad_to_outs: need at least one output";
  let current = body_flops body in
  if current > target then
    invalid_arg
      (Printf.sprintf "pad_to: body already costs %d > %d flops" current target);
  let n_outs = List.length outs in
  let rec add body remaining i =
    let out = List.nth outs (i mod n_outs) in
    if remaining = 0 then body
    else if remaining = 1 then body @ [ B.accum3 out (B.a3 arr (0, 0, 0)) ]
    else begin
      let chunk = min remaining 32 in
      add
        (body @ [ B.accum3 out (pad_expr ~salt:i arr (chunk - 1)) ])
        (remaining - chunk) (i + 1)
    end
  in
  let body = add body (target - current) 0 in
  assert (body_flops body = target);
  body

let pad_to ~target ~out ~arr body = pad_to_outs ~target ~outs:[ out ] ~arr body

