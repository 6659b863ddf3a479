(* Degree-N temporal blocking: a blocked ping-pong loop must be
   bit-identical to the unblocked one — per executor mode (interpreter,
   split), per halo policy, per buffer strategy, with and without a
   streamed interleaved traversal, and with degree remainders.
   Static legality mirrors the affine engine: blocked Gauss-Seidel is
   rejected (A802), legal blocked plans lint as Info (A801). *)

open Artemis_dsl
module A = Ast
module I = Instantiate
module Plan = Artemis_ir.Plan
module Validate = Artemis_ir.Validate
module E = Artemis_exec
module F = Artemis_fuse.Fusion
module Lint = Artemis.Lint
module O = Artemis_codegen.Options

let case name f = Alcotest.test_case name `Quick f

(* ---------------- programs ---------------- *)

(* 7-point Jacobi ping-pong: stream-legal (single covering assign, reads
   only the input buffer). *)
let jacobi_src n =
  Printf.sprintf
    {|parameter L=14, M=12, N=16; iterator k, j, i;
    double out[L,M,N], inp[L,M,N]; copyin inp, out;
    stencil s0 (x, y) {
      x[k][j][i] = 0.4 * y[k][j][i] + 0.1 * (y[k][j][i+1] + y[k][j][i-1]
        + y[k][j+1][i] + y[k][j-1][i] + y[k+1][j][i] + y[k-1][j][i]);
    }
    iterate %d { s0 (out, inp); swap (out, inp); }
    copyout out;|}
    n

(* Same stencil through a per-point temporary: still stream-legal, and
   exercises the streamed traversal's fresh-per-plane temp semantics. *)
let jacobi_temp_src n =
  Printf.sprintf
    {|parameter L=12, M=10, N=14; iterator k, j, i;
    double out[L,M,N], inp[L,M,N]; copyin inp, out;
    stencil s0 (x, y) {
      double t = y[k][j][i+1] + y[k][j][i-1] + y[k-1][j][i];
      x[k][j][i] = 0.5 * y[k][j][i] + 0.25 * t + 0.125 * y[k+1][j][i];
    }
    iterate %d { s0 (out, inp); swap (out, inp); }
    copyout out;|}
    n

(* Two-stage body writing an intermediate array read back at an offset:
   block-legal but NOT stream-legal, so blocked launches take the exact
   per-step fallback. *)
let two_stage_src n =
  Printf.sprintf
    {|parameter L=12, M=10, N=14; iterator k, j, i;
    double out[L,M,N], g[L,M,N], inp[L,M,N]; copyin inp, out;
    stencil s0 (x, w, y) {
      w[k][j][i] = 0.5 * (y[k][j][i+1] - y[k][j][i-1]);
      x[k][j][i] = y[k][j][i] + 0.25 * (w[k][j][i+1] + w[k][j][i-1]);
    }
    iterate %d { s0 (out, g, inp); swap (out, inp); }
    copyout out;|}
    n

(* Gauss-Seidel ping-pong: the write reads itself at negative shifts, so
   inner time steps cannot proceed tile-independently. *)
let gauss_seidel_src =
  {|parameter L=10, M=10, N=12; iterator k, j, i;
    double out[L,M,N], inp[L,M,N]; copyin inp, out;
    stencil gs (x, y) {
      x[k][j][i] = 0.25 * (y[k][j][i] + x[k][j][i-1] + x[k][j-1][i]
        + x[k-1][j][i]);
    }
    iterate 6 { gs (out, inp); swap (out, inp); }
    copyout out;|}

(* ---------------- helpers ---------------- *)

let pingpong_kernel src =
  let prog = Artemis.parse_string src in
  Check.check prog;
  match
    List.find_map Artemis.Fusion.pingpong_of_item (I.schedule prog)
  with
  | Some (t, k, out, inp) -> (prog, t, k, out, inp)
  | None -> Alcotest.fail "program has no ping-pong loop"

(* Degree-N windows add shared/register pressure, so blocked plans need
   smaller blocks than degree-1 plans — shrink until launchable, as the
   tuner's validity filter does. *)
let shrink_blocked p = Artemis_verify.Sampler.shrink_valid p 12

let rec shrink_steps steps =
  List.map
    (function
      | E.Runner.Run_plan p -> E.Runner.Run_plan (shrink_blocked p)
      | E.Runner.Swap _ as s -> s
      | E.Runner.Loop (n, sub) -> E.Runner.Loop (n, shrink_steps sub))
    steps

let count_blocked steps =
  let n = ref 0 in
  let rec go steps =
    List.iter
      (function
        | E.Runner.Run_plan p -> if Plan.temporally_blocked p then incr n
        | E.Runner.Swap _ -> ()
        | E.Runner.Loop (_, sub) -> go sub)
      steps
  in
  go steps;
  !n

(* Run [src]'s schedule unblocked through the reference executor and
   blocked at [degree] through the block executor; every copyout array
   must match bit for bit. *)
let blocked_vs_unblocked ?schedule ?(halo = Plan.Halo_recompute)
    ?(tbuf = Plan.Shared_double) ~degree src =
  let prog = Artemis.parse_string src in
  Check.check prog;
  let sched = I.schedule prog in
  let scalars = E.Reference.scalars_of_program prog in
  let ref_store = E.Reference.store_of_program prog in
  E.Reference.run_schedule ?schedule ref_store ~scalars sched;
  let store = E.Reference.store_of_program prog in
  let plan_of k = Util.valid_lower k O.default in
  let steps = E.Runner.configure ~plan_of sched in
  let blocked = shrink_steps (E.Runner.temporal_rewrite ~halo ~tbuf ~degree steps) in
  Alcotest.(check bool)
    "rewrite produced a blocked plan" true
    (count_blocked blocked > count_blocked steps);
  E.Runner.run_schedule ?schedule blocked store ~scalars;
  List.iter
    (fun name ->
      let a = E.Reference.find_array ref_store name in
      let b = E.Reference.find_array store name in
      let diff = E.Grid.max_abs_diff a b in
      if diff > 0.0 then
        Alcotest.failf "array %s differs by %g at degree %d" name diff degree)
    prog.copyout

(* ---------------- cases ---------------- *)

let equality_cases =
  [ case "streamed blocked = unblocked, all modes, degrees 2-5" (fun () ->
        List.iter
          (fun schedule ->
            List.iter
              (fun degree -> blocked_vs_unblocked ~schedule ~degree (jacobi_src 12))
              [ 2; 3; 4; 5 ])
          [ E.Eval.Interpret; E.Eval.Rows ]);
    case "degree with remainder (T=11, b=3) is exact" (fun () ->
        blocked_vs_unblocked ~degree:3 (jacobi_src 11));
    case "degree = T collapses to one launch and is exact" (fun () ->
        (* an 8-deep recompute window exceeds shared memory at any block
           shape; the register-cycling strategy carries it *)
        blocked_vs_unblocked ~tbuf:Plan.Register_cycle ~degree:8 (jacobi_src 8));
    case "per-point temporaries stay fresh per plane" (fun () ->
        List.iter
          (fun degree -> blocked_vs_unblocked ~degree (jacobi_temp_src 9))
          [ 2; 4 ]);
    case "halo exchange policy is execution-equivalent" (fun () ->
        blocked_vs_unblocked ~halo:Plan.Halo_exchange ~degree:4 (jacobi_src 12));
    case "register-cycle buffers are execution-equivalent" (fun () ->
        blocked_vs_unblocked ~tbuf:Plan.Register_cycle ~degree:3 (jacobi_src 12));
    case "non-streamable body takes the exact per-step fallback" (fun () ->
        let _, _, k, out, inp = pingpong_kernel (two_stage_src 10) in
        Alcotest.(check bool) "block-legal" true (F.block_legal k ~out ~inp);
        Alcotest.(check bool) "not stream-legal" false (F.stream_legal k ~out ~inp);
        List.iter
          (fun degree -> blocked_vs_unblocked ~degree (two_stage_src 10))
          [ 2; 5 ]) ]

let legality_cases =
  [ case "jacobi is stream-legal with skew 1" (fun () ->
        let _, _, k, out, inp = pingpong_kernel (jacobi_src 12) in
        Alcotest.(check bool) "stream_legal" true (F.stream_legal k ~out ~inp);
        Alcotest.(check int) "skew" 1 (F.stream_skew k));
    case "blocked Gauss-Seidel is rejected statically" (fun () ->
        let _, _, k, out, inp = pingpong_kernel gauss_seidel_src in
        Alcotest.(check bool) "illegal" true (F.block_illegal k ~out ~inp <> None)) ]

let blocked_plan_of ?(degree = 4) src =
  let _, _, k, out, inp = pingpong_kernel src in
  let p = Util.valid_lower k O.default in
  shrink_blocked
    { p with
      Plan.temporal =
        { Plan.degree; halo = Plan.Halo_recompute; tbuf = Plan.Shared_double;
          pair = Some (out, inp) }
    }

(* One streamed launch of [src]'s blocked plan at [degree] under
   [schedule]: the final grids of the ping-pong pair and the launch's
   tally. *)
let streamed_launch ~schedule ~degree src =
  let prog, _, k, out, inp = pingpong_kernel src in
  Alcotest.(check bool) "stream-legal" true (F.stream_legal k ~out ~inp);
  let plan = blocked_plan_of ~degree src in
  let store = E.Reference.store_of_program prog in
  let (), tally =
    E.Region.with_tally (fun () ->
        E.Kernel_exec.run ~schedule (Util.valid plan) store
          ~scalars:(E.Reference.scalars_of_program prog))
  in
  (List.map (fun a -> E.Grid.copy (E.Reference.find_array store a)) [ out; inp ], k, tally)

let bits_equal (a : E.Grid.t) (b : E.Grid.t) =
  Array.for_all2
    (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
    a.data b.data

let streamed_cases =
  [ case "streamed rows sweep only interiors, bit-identical to the interpreter"
      (fun () ->
        List.iter
          (fun (name, src) ->
            List.iter
              (fun degree ->
                let label = Printf.sprintf "%s, degree %d" name degree in
                let rows, k, t = streamed_launch ~schedule:E.Eval.Rows ~degree src in
                let interp, _, _ =
                  streamed_launch ~schedule:E.Eval.Interpret ~degree src
                in
                Alcotest.(check bool) (label ^ ": grids bit-identical") true
                  (List.for_all2 bits_equal rows interp);
                Alcotest.(check (float 0.0)) (label ^ ": no guarded point") 0.0
                  t.E.Region.t_guarded;
                Alcotest.(check bool) (label ^ ": interior rows swept") true
                  (t.t_interior > 0.0);
                (* every statement sweeps every plane at every inner step *)
                let volume = E.Region.volume (E.Region.of_dims k.I.domain) in
                Alcotest.(check (float 0.0))
                  (label ^ ": interior + eliminated = degree x statements x volume")
                  (float_of_int (degree * List.length k.body * volume))
                  (t.t_interior +. t.t_eliminated))
              [ 2; 4 ])
          [ ("jacobi", jacobi_src 8); ("jacobi with a temp", jacobi_temp_src 8) ]) ]

let has_code code fs = List.exists (fun f -> f.Lint.code = code) fs
let has_errors fs = List.exists (fun f -> f.Lint.severity = Lint.Error) fs

let lint_cases =
  [ case "A801 info on a legal blocked plan" (fun () ->
        let fs = Lint.lint_plan (blocked_plan_of (jacobi_src 12)) in
        Alcotest.(check bool) "A801" true (has_code "A801" fs);
        Alcotest.(check bool) "no A802" false (has_code "A802" fs);
        Alcotest.(check bool) "no errors" false (has_errors fs));
    case "A802 error on blocked Gauss-Seidel" (fun () ->
        let p = blocked_plan_of gauss_seidel_src in
        let fs = Lint.lint_plan p in
        Alcotest.(check bool) "A802" true (has_code "A802" fs);
        Alcotest.(check bool) "no A801" false (has_code "A801" fs);
        Alcotest.(check bool) "static_plan_errors prunes" true
          (has_errors (Lint.static_plan_errors p)));
    case "A801/A802 absent at degree 1" (fun () ->
        let _, _, k, _, _ = pingpong_kernel (jacobi_src 12) in
        let fs = Lint.lint_plan (Util.valid_lower k O.default) in
        Alcotest.(check bool) "no A801" false (has_code "A801" fs);
        Alcotest.(check bool) "no A802" false (has_code "A802" fs));
    case "Bad_degree violations" (fun () ->
        let _, _, k, _, _ = pingpong_kernel (jacobi_src 12) in
        let p = Util.valid_lower k O.default in
        let bad tb = Validate.violations { p with Plan.temporal = tb } in
        let is_bad = function Validate.Bad_degree _ -> true | _ -> false in
        Alcotest.(check bool) "degree 0" true
          (List.exists is_bad (bad { Plan.no_temporal with Plan.degree = 0 }));
        Alcotest.(check bool) "degree > 1 without pair" true
          (List.exists is_bad (bad { Plan.no_temporal with Plan.degree = 3 }));
        Alcotest.(check bool) "degree 1 fine" false
          (List.exists is_bad (bad Plan.no_temporal))) ]

(* ---------------- fuzz generator coverage ---------------- *)

let gen_cases =
  [ case "generator emits deep time loops alongside shallow ones" (fun () ->
        (* A forked-stream fraction of iterative cases runs 6..12 time
           steps — enough that a degree-N block covers several inner
           steps per launch — while the rest keep the historical 2..4. *)
        let deep = ref 0 and shallow = ref 0 in
        for index = 0 to 79 do
          let c = Artemis_verify.Gen.generate ~seed:42 ~index in
          if c.Artemis_verify.Gen.iterative then
            List.iter
              (function
                | A.Iterate (t, _) -> if t >= 6 then incr deep else incr shallow
                | _ -> ())
              c.Artemis_verify.Gen.prog.A.main
        done;
        Alcotest.(check bool) "deep time loops generated" true (!deep > 0);
        Alcotest.(check bool) "shallow time loops kept" true (!shallow > 0)) ]

let tests =
  ( "temporal",
    equality_cases @ legality_cases @ lint_cases @ gen_cases @ streamed_cases )
