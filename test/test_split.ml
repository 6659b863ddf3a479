(* Interior/halo split-execution tests: the region decomposition
   partitions exactly (randomized over ranks/extents), the in-bounds
   interior matches the guard set, order-dependent statements take the
   wavefront schedule (or the guarded path when no hyperplane applies),
   and both executor modes — the point-wise interpreter and split —
   produce bit-identical outputs on suite programs, the fuzz corpus, and
   through the block executor.  The wavefront section pins the
   Gauss-Seidel/SOR matrix: interpreter vs guarded fallback vs wavefront
   schedule, at jobs=1 and forced jobs=4, bit for bit. *)

open Artemis_dsl
module A = Ast
module I = Instantiate
module E = Artemis_exec
module Region = Artemis_exec.Region
module Eval = Artemis_exec.Eval
module Rng = Artemis_verify.Rng
module Gen = Artemis_verify.Gen
module Metrics = Artemis_obs.Metrics
module Suite = Artemis_bench.Suite

let case name f = Alcotest.test_case name `Quick f

(* ---------------- schedules ---------------- *)

(* The executor schedules compared here: the point-wise interpreter, the
   default row schedule, and the row schedule without the wavefront or
   without static guard elimination. *)
let interp = Eval.Interpret
let split = Eval.default_schedule
let no_wavefront = Eval.Rows { wavefront = false; static_elim = true }
let no_elim = Eval.Rows { wavefront = true; static_elim = false }

(* ---------------- partition property ---------------- *)

(* Random box of the given rank; bounds may be negative, extents small
   enough that brute-force point enumeration stays cheap. *)
let random_box rng rank =
  Array.init rank (fun _ ->
      let lo = Rng.int rng 7 - 3 in
      (lo, lo + Rng.int rng 6 - 1))

(* Random sub-box of [region] (possibly empty). *)
let random_subbox rng (region : Region.box) =
  Array.map
    (fun (lo, hi) ->
      if hi < lo then (lo, hi)
      else begin
        let lo' = lo + Rng.int rng (hi - lo + 2) in
        let hi' = lo' - 1 + Rng.int rng (hi - lo' + 2) in
        (lo', hi')
      end)
    region

(* [p] lies in box [b]. *)
let contains (b : Region.box) p =
  Array.for_all2 (fun (lo, hi) c -> lo <= c && c <= hi) b p

(* Sign of the first nonzero component, 0 for the zero vector. *)
let lex_sign v =
  match Array.find_opt (fun c -> c <> 0) v with Some c -> compare c 0 | None -> 0

let partition_trial rng =
  let rank = 1 + Rng.int rng 4 in
  let region = random_box rng rank in
  let interior = random_subbox rng region in
  let pieces = interior :: Region.split ~region ~interior in
  (* volumes add up... *)
  let vol = List.fold_left (fun acc b -> acc + Region.volume b) 0 pieces in
  Alcotest.(check int) "volumes sum to the region" (Region.volume region) vol;
  (* ...and every region point lies in exactly one piece *)
  Region.iter_points region (fun p ->
      let n =
        List.fold_left
          (fun acc b -> if contains b p then acc + 1 else acc)
          0 pieces
      in
      if n <> 1 then
        Alcotest.failf "point covered %d times (rank %d)" n rank);
  (* every piece stays inside the region *)
  List.iter
    (fun b ->
      Region.iter_points b (fun p ->
          if not (contains region p) then
            Alcotest.fail "piece escapes the region"))
    pieces

(* A canonically empty rank-2 box. *)
let empty2 : Region.box = [| (0, -1); (0, -1) |]

let region_tests =
  [
    case "interior + shells partition the region (randomized)" (fun () ->
        let rng = Rng.make 42 in
        for _ = 1 to 300 do
          partition_trial rng
        done);
    case "empty interior yields the region as one shell" (fun () ->
        let region = [| (0, 3); (1, 2) |] in
        (match Region.split ~region ~interior:empty2 with
        | [ shell ] -> Alcotest.(check bool) "whole region" true (shell = region)
        | l -> Alcotest.failf "expected 1 shell, got %d" (List.length l));
        Alcotest.(check int)
          "empty region, no pieces" 0
          (List.length
             (Region.split ~region:empty2 ~interior:empty2)));
    case "interior = region yields no shells" (fun () ->
        let region = [| (0, 3); (1, 2) |] in
        Alcotest.(check int) "no shells" 0
          (List.length (Region.split ~region ~interior:region)));
    case "iter_rows covers the box in row-sized runs" (fun () ->
        let rng = Rng.make 7 in
        for _ = 1 to 100 do
          let rank = 1 + Rng.int rng 3 in
          let b = random_box rng rank in
          let rows = ref 0 and pts = ref 0 in
          Region.iter_rows b (fun p n ->
              incr rows;
              pts := !pts + n;
              Alcotest.(check bool) "row start inside" true (contains b p));
          Alcotest.(check int) "points covered" (Region.volume b) !pts;
          if Region.volume b > 0 then
            Alcotest.(check int) "rows = volume / row length"
              (Region.volume b
              / (let lo, hi = b.(rank - 1) in
                 hi - lo + 1))
              !rows
        done);
  ]

(* ---------------- interior = guard set ---------------- *)

let mk_binder grids scalars iters =
  {
    Eval.bind_array = (fun a -> List.assoc a grids);
    bind_temp = (fun _ -> None);
    bind_scalar = (fun s -> List.assoc s scalars);
    binder_iters = iters;
  }

let ij shift_i shift_j = [ A.index ~iter:"i" shift_i; A.index ~iter:"j" shift_j ]

(* [target[idx] = e] through the one statement-compilation entry point:
   the split lowering when the statement splits, [None] when it takes
   the wavefront schedule or the guarded path. *)
let split_of b ~target idx e =
  match (Eval.compile_stmt ~schedule:split b ~target ~accum:false idx e).sx_class with
  | Eval.Sc_split ss -> Some ss
  | Eval.Sc_wavefront _ | Eval.Sc_guarded -> None

let interior_tests =
  [
    case "split interior is exactly the in-bounds box" (fun () ->
        let u = E.Grid.create [| 12; 12 |] and v = E.Grid.create [| 12; 12 |] in
        let b = mk_binder [ ("u", u); ("v", v) ] [] [ "i"; "j" ] in
        let e = A.Access ("v", ij (-1) 2) in
        let ss = Option.get (split_of b ~target:u (ij 0 0) e) in
        let interior = Eval.split_interior ss (Region.of_dims [| 12; 12 |]) in
        Alcotest.(check bool) "clipped to the read's reach" true
          (interior = [| (1, 11); (0, 9) |]));
    case "constant index out of range empties the interior" (fun () ->
        let u = E.Grid.create [| 12; 12 |] and v = E.Grid.create [| 12; 12 |] in
        let b = mk_binder [ ("u", u); ("v", v) ] [] [ "i"; "j" ] in
        let e = A.Access ("v", [ A.index 12; A.index ~iter:"j" 0 ]) in
        let ss = Option.get (split_of b ~target:u (ij 0 0) e) in
        Alcotest.(check bool) "empty" true
          (Region.is_empty (Eval.split_interior ss (Region.of_dims [| 12; 12 |]))));
    case "flat rows equal guarded evaluation on the interior" (fun () ->
        let rng = Rng.make 99 in
        let swept = ref 0 in
        for trial = 1 to 400 do
          (* Even trials write u[i][j] (rows evaluate a whole row at a
             time); odd trials write u1[i], which does not move along the
             row, so a self-read makes the row evaluate point by point. *)
          let covering = trial mod 2 = 0 in
          let n0 = 1 + Rng.int rng 8 and n1 = 1 + Rng.int rng 9 in
          let grid dims seed =
            let g = E.Grid.create dims in
            E.Grid.init_pattern ~seed g;
            g
          in
          let v = grid [| n0; n1 |] 1 and w = grid [| n1; n0 |] 2 in
          let t = grid [| n0; n1 |] 3 in
          let shift () = Rng.int rng 5 - 2 in
          let leaf () =
            match Rng.int rng 8 with
            | 0 -> A.Const (float_of_int (Rng.int rng 17 - 8) *. 0.375)
            | 1 -> A.Scalar_ref "c"
            | 2 -> A.Scalar_ref "t"
            | 3 -> A.Access ("v", ij (shift ()) (shift ()))
            | 4 ->
              (* transposed: stride n0 along the row *)
              A.Access
                ("w", [ A.index ~iter:"j" (shift ()); A.index ~iter:"i" (shift ()) ])
            | 5 ->
              (* constant index: stride 0 along i *)
              A.Access ("v", [ A.index (Rng.int rng n0); A.index ~iter:"j" (shift ()) ])
            | 6 ->
              (* self-read of the written cell *)
              if covering then A.Access ("u", ij 0 0)
              else A.Access ("u1", [ A.index ~iter:"i" 0 ])
            | _ -> A.Access ("v", ij 0 0)
          in
          (* The non-covering write may only read what does not move
             along j (else the statement does not split). *)
          let leaf () =
            if covering then leaf ()
            else
              match Rng.int rng 4 with
              | 0 -> A.Const (float_of_int (Rng.int rng 17 - 8) *. 0.375)
              | 1 -> A.Scalar_ref "c"
              | 2 -> A.Access ("v", [ A.index ~iter:"i" (shift ()); A.index (Rng.int rng n1) ])
              | _ -> A.Access ("u1", [ A.index ~iter:"i" 0 ])
          in
          let rec expr depth =
            if depth = 0 || Rng.int rng 4 = 0 then leaf ()
            else
              let sub () = expr (depth - 1) in
              match Rng.int rng 15 with
              | 0 -> A.Neg (sub ())
              | 1 -> A.Bin (A.Add, sub (), sub ())
              | 2 -> A.Bin (A.Sub, sub (), sub ())
              | 3 -> A.Bin (A.Mul, sub (), sub ())
              | 4 -> A.Bin (A.Div, sub (), sub ())
              | 5 -> A.Call ("min", [ sub (); sub () ])
              | 6 -> A.Call ("max", [ sub (); sub () ])
              | 7 -> A.Call ("pow", [ sub (); sub () ])
              | 8 -> A.Call ("fma", [ sub (); sub (); sub () ])
              | k ->
                A.Call
                  ( List.nth [ "sqrt"; "fabs"; "exp"; "log"; "sin"; "cos" ] (k - 9),
                    [ sub () ] )
          in
          let e = expr 5 in
          let accum = Rng.bool rng in
          (* Sweep a random sub-box so row lengths range over 1..n1. *)
          let sub_range n =
            let lo = Rng.int rng n in
            (lo, lo + Rng.int rng (n - lo))
          in
          let region = [| sub_range n0; sub_range n1 |] in
          let run ~flat =
            let u = grid [| n0; n1 |] 4 and u1 = grid [| n0 |] 5 in
            let b =
              {
                Eval.bind_array =
                  (fun a -> List.assoc a [ ("u", u); ("u1", u1); ("v", v); ("w", w) ]);
                bind_temp = (fun s -> if s = "t" then Some t else None);
                bind_scalar = (fun _ -> 0.5);
                binder_iters = [ "i"; "j" ];
              }
            in
            let target, widx =
              if covering then (u, ij 0 0) else (u1, [ A.index ~iter:"i" 0 ])
            in
            let sx = Eval.compile_stmt ~schedule:split b ~target ~accum widx e in
            let ss =
              match sx.sx_class with
              | Eval.Sc_split ss -> ss
              | _ -> Alcotest.failf "trial %d: statement does not split" trial
            in
            let interior = Eval.split_interior ss region in
            if flat then Region.iter_rows interior sx.sx_row
            else
              (* the point-wise interpreter ([eval]/[guard]), independent
                 of rows *)
              Region.iter_points interior
                (Eval.compile_stmt ~schedule:interp b ~target ~accum widx e)
                  .sx_guarded;
            (target, Region.volume interior)
          in
          let rows, pts = run ~flat:true and guarded, _ = run ~flat:false in
          if pts > 0 then incr swept;
          Array.iteri
            (fun k x ->
              let y = guarded.E.Grid.data.(k) in
              if not (Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
              then
                Alcotest.failf "trial %d, cell %d: rows %h, guarded %h (%s)" trial
                  k x y (Artemis_dsl.Pretty.expr_to_string e))
            rows.E.Grid.data
        done;
        Alcotest.(check bool) "most trials sweep an interior" true (!swept > 200));
  ]

(* ---------------- order-dependence fallback ---------------- *)

let fallback_tests =
  [
    case "self-read at a different offset declines to split" (fun () ->
        let u = E.Grid.create [| 8; 8 |] in
        let b = mk_binder [ ("u", u) ] [] [ "i"; "j" ] in
        Alcotest.(check bool) "None" true
          (split_of b ~target:u (ij 0 0) (A.Access ("u", ij 0 (-1))) = None));
    case "self-read at the written cell still splits" (fun () ->
        let u = E.Grid.create [| 8; 8 |] in
        let b = mk_binder [ ("u", u) ] [] [ "i"; "j" ] in
        Alcotest.(check bool) "Some" true
          (split_of b ~target:u (ij 0 0) (A.Access ("u", ij 0 0)) <> None));
    case "write not covering every iterator declines to split" (fun () ->
        let u = E.Grid.create [| 8; 8 |] and v = E.Grid.create [| 8; 8 |] in
        let b = mk_binder [ ("u", u); ("v", v) ] [] [ "i"; "j" ] in
        let widx = [ A.index ~iter:"i" 0; A.index ~iter:"i" 0 ] in
        Alcotest.(check bool) "None" true
          (split_of b ~target:u widx (A.Access ("v", ij 0 0)) = None));
    case "write not covering every iterator still splits when order-free"
      (fun () ->
        (* u[j] = f(u[j]) under iters (i, j): the free iterator i varies
           no read, so every i-iteration writes the same value and the
           statement is order-independent — a pre-wavefront false
           negative in [order_independent] declined it. *)
        let u = E.Grid.create [| 8 |] in
        let b = mk_binder [ ("u", u) ] [] [ "i"; "j" ] in
        let j0 = [ A.index ~iter:"j" 0 ] in
        Alcotest.(check bool) "Some" true
          (split_of b ~target:u j0 (A.Access ("u", j0)) <> None));
    case "free iterator varying a read still declines to split" (fun () ->
        (* u[j] = v[i]: successive i-iterations write different values
           to the same cell, so the last-writer order matters. *)
        let u = E.Grid.create [| 8 |] and v = E.Grid.create [| 8 |] in
        let b = mk_binder [ ("u", u); ("v", v) ] [] [ "i"; "j" ] in
        Alcotest.(check bool) "None" true
          (split_of b ~target:u
             [ A.index ~iter:"j" 0 ]
             (A.Access ("v", [ A.index ~iter:"i" 0 ]))
          = None));
    case "gauss-seidel style self-reference matches the interpreter" (fun () ->
        (* the self-read at (0, -1) is intra-row, so the wavefront
           schedule puts every row in one wavefront and the increasing
           flat inner loop preserves the lexicographic update order *)
        let src =
          {|parameter L=14; iterator i, j; double u[L,L]; copyin u;
            stencil s0 (x) { x[i][j] = 0.5 * (x[i][j-1] + x[i][j]); }
            s0 (u); copyout u;|}
        in
        let prog = Artemis.parse_string src in
        let k = Artemis.first_kernel prog in
        let scalars = E.Reference.scalars_of_program prog in
        let run schedule =
          let store = E.Reference.store_of_program prog in
          E.Reference.run_kernel ~schedule store ~scalars k;
          E.Reference.find_array store "u"
        in
        Alcotest.(check (float 0.0))
          "identical" 0.0
          (E.Grid.max_abs_diff (run interp) (run split)));
  ]

(* ---------------- whole-executor bit-identity ---------------- *)

(* Copyout grids after running a program's schedule through the
   reference executor under the executor [schedule]. *)
let reference_outputs schedule (prog : A.program) =
  let store = E.Reference.store_of_program prog in
  E.Reference.run_schedule ~schedule store
    ~scalars:(E.Reference.scalars_of_program prog)
    (I.schedule prog);
  List.map (fun n -> (n, E.Grid.copy (E.Reference.find_array store n))) prog.copyout

(* Same through the block executor, one plan per kernel; block shapes
   shrink until launchable, as the tuner's validity filter would. *)
let runner_outputs schedule opts (prog : A.program) =
  let store = E.Reference.store_of_program prog in
  let steps =
    E.Runner.configure ~plan_of:(fun k -> Util.valid_lower k opts) (I.schedule prog)
  in
  let _ =
    E.Runner.run_schedule ~schedule steps store
      ~scalars:(E.Reference.scalars_of_program prog)
  in
  List.map (fun n -> (n, E.Grid.copy (E.Reference.find_array store n))) prog.copyout

let check_identical label outs outs' =
  List.iter2
    (fun (n, a) (n', b) ->
      assert (n = n');
      let d = E.Grid.max_abs_diff a b in
      if d > 0.0 then Alcotest.failf "%s: array %s differs by %g" label n d)
    outs outs'

let modes_identical ~outputs what =
  check_identical (what ^ ": split vs interpreter") (outputs split) (outputs interp)

let suite_mode_cases =
  List.map
    (fun bname ->
      case (Printf.sprintf "%s: all modes bit-identical (reference)" bname)
        (fun () ->
          let b = Suite.at_size 12 (Suite.find bname) in
          modes_identical bname ~outputs:(fun m -> reference_outputs m b.prog)))
    [ "7pt-smoother"; "27pt-smoother"; "denoise"; "miniflux"; "hypterm";
      "rhs4center"; "rhs4sgcurv" ]

let kernel_exec_mode_cases =
  let module O = Artemis_codegen.Options in
  List.concat_map
    (fun bname ->
      List.map
        (fun (pname, opts) ->
          case
            (Printf.sprintf "%s / %s: all modes bit-identical (blocks)" bname
               pname)
            (fun () ->
              let b = Suite.at_size 12 (Suite.find bname) in
              modes_identical
                (bname ^ "/" ^ pname)
                ~outputs:(fun m -> runner_outputs m opts b.prog)))
        [ ("global tiled", O.global_tiled); ("shared stream", O.default) ])
    [ "7pt-smoother"; "rhs4center" ]

let fuzz_mode_cases =
  [
    case "fuzz corpus: all modes bit-identical (reference)" (fun () ->
        for index = 0 to 7 do
          let c = Gen.generate ~seed:11 ~index in
          modes_identical
            (Printf.sprintf "case %d" index)
            ~outputs:(fun m -> reference_outputs m c.prog)
        done);
  ]

(* ---------------- metrics ---------------- *)

let metrics_tests =
  [
    case "split sweeps feed the interior/eliminated counters" (fun () ->
        let m_int = Metrics.counter "exec.interior_points" in
        let m_halo = Metrics.counter "exec.halo_points" in
        let m_elim = Metrics.counter "exec.eliminated_points" in
        let before_int = Metrics.counter_value m_int in
        let before_halo = Metrics.counter_value m_halo in
        let before_elim = Metrics.counter_value m_elim in
        let b = Suite.at_size 12 (Suite.find "7pt-smoother") in
        ignore (reference_outputs split b.prog);
        Alcotest.(check bool) "interior points counted" true
          (Metrics.counter_value m_int > before_int);
        (* under static elimination (the default) the shells are proven
           dead and skipped, not swept as halo *)
        Alcotest.(check bool) "shells eliminated" true
          (Metrics.counter_value m_elim > before_elim);
        Alcotest.(check (float 0.0)) "no halo points under elimination"
          before_halo (Metrics.counter_value m_halo);
        (* with elimination off, the shells take the guarded halo path *)
        let after_elim = Metrics.counter_value m_elim in
        ignore (reference_outputs no_elim b.prog);
        Alcotest.(check bool) "halo points counted without elimination" true
          (Metrics.counter_value m_halo > before_halo);
        Alcotest.(check (float 0.0)) "elimination off adds none" after_elim
          (Metrics.counter_value m_elim);
        (* the point-wise interpreter never touches the interior counter *)
        let after_int = Metrics.counter_value m_int in
        ignore (reference_outputs interp b.prog);
        Alcotest.(check (float 0.0)) "interpreter adds none" after_int
          (Metrics.counter_value m_int));
    case "elimination on/off bit-identical on suite programs" (fun () ->
        List.iter
          (fun bname ->
            let b = Suite.at_size 12 (Suite.find bname) in
            check_identical
              (bname ^ ": elim on vs off")
              (reference_outputs split b.prog)
              (reference_outputs no_elim b.prog))
          [ "7pt-smoother"; "denoise"; "rhs4center" ]);
  ]

(* ---------------- wavefront schedule ---------------- *)

module W = E.Wavefront
module Static = Artemis_static.Static
module Journal = Artemis_obs.Journal

(* Gauss-Seidel with a forcing term: uniform self-dependence with
   distances (0,-1), (-1,0), (0,1), (1,0) — wavefront-scheduled. *)
let wf_gs2d_src =
  {|parameter L=19, M=23; iterator j, i;
    double u[L,M], f[L,M]; copyin u, f;
    stencil gs (x, g) {
      x[j][i] = 0.25 * (x[j][i-1] + x[j-1][i] + x[j][i+1] + x[j+1][i]) + 0.0625 * g[j][i];
    }
    gs (u, f); copyout u;|}

(* 3-D SOR sweep: six unit distances plus the diagonal center term. *)
let wf_sor3d_src =
  {|parameter N=9, P=11, Q=13; iterator k, j, i;
    double u[N,P,Q]; copyin u;
    stencil sor (x) {
      x[k][j][i] = 0.0625 * x[k][j][i] + 0.125 * (x[k][j][i-1] + x[k][j-1][i] + x[k-1][j][i] + x[k][j][i+1] + x[k][j+1][i] + x[k+1][j][i]);
    }
    sor (u); copyout u;|}

(* The full executor matrix on one self-dependent program: interpreter,
   guarded fallback (the row schedule without the wavefront), and the
   wavefront schedule, through the reference and block executors — all
   bit-identical. *)
let wavefront_matrix_case name src =
  case (Printf.sprintf "%s: interpreter/guarded/wavefront bit-identical" name)
    (fun () ->
      let module O = Artemis_codegen.Options in
      let prog = Artemis.parse_string src in
      let wf = reference_outputs split prog in
      check_identical (name ^ ": wavefront vs interpreter") wf
        (reference_outputs interp prog);
      check_identical (name ^ ": wavefront vs guarded") wf
        (reference_outputs no_wavefront prog);
      let bwf = runner_outputs split O.default prog in
      check_identical (name ^ ": blocks wavefront vs reference") wf bwf;
      check_identical
        (name ^ ": blocks wavefront vs blocks guarded")
        bwf
        (runner_outputs no_wavefront O.default prog))

(* [reference_outputs split] at the given job count, with the pool's
   core-count clamp disabled so jobs=4 exercises the queue even on
   single-core hosts; returns the copyout grids and the decision
   journal. *)
let wavefront_run_at_jobs prog jobs =
  Util.with_pool ~jobs (fun () ->
      Journal.start ();
      let outs = reference_outputs split prog in
      Journal.stop ();
      (outs, Journal.to_jsonl ()))

let wavefront_tests =
  [
    case "hyperplane: intra-row dependence needs no row ordering" (fun () ->
        Alcotest.(check bool) "zero vector" true
          (Static.hyperplane ~rank:2 [ [| 0; 1 |] ] = Some [| 0 |]));
    case "hyperplane: legal for random same-sign cones (randomized)" (fun () ->
        let rng = Rng.make 5 in
        for _ = 1 to 200 do
          let rank = 2 + Rng.int rng 2 in
          let sign = if Rng.chance rng 0.5 then 1 else -1 in
          let deltas =
            List.init
              (1 + Rng.int rng 3)
              (fun _ ->
                let d = Array.init rank (fun _ -> sign * Rng.int rng 2) in
                if Array.for_all (( = ) 0) d then d.(Rng.int rng rank) <- sign;
                d)
          in
          match Static.hyperplane ~rank deltas with
          | None -> Alcotest.fail "no hyperplane for a same-sign cone"
          | Some vec ->
            List.iter
              (fun d ->
                let outer = Array.sub d 0 (rank - 1) in
                if lex_sign outer <> 0 then begin
                  let dot = ref 0 in
                  Array.iteri (fun i v -> dot := !dot + (v * outer.(i))) vec;
                  Alcotest.(check int)
                    "sign (vec . d') = lex_sign d'" (lex_sign outer)
                    (compare !dot 0)
                end)
              deltas
        done);
    case "iter_wavefronts: rows partition, wavefront index increases"
      (fun () ->
        let region = [| (0, 4); (-1, 3); (2, 9) |] in
        let vec = [| 2; 1 |] in
        let seen = Hashtbl.create 32 in
        let last_w = ref min_int in
        W.iter_wavefronts ~region ~vec (fun w rows ->
            Alcotest.(check bool) "wavefronts in increasing order" true
              (w > !last_w);
            last_w := w;
            Array.iter
              (fun row ->
                (* w is rebased to the region's low corner *)
                Alcotest.(check int) "row on its wavefront" w
                  ((vec.(0) * (row.(0) - 0)) + (vec.(1) * (row.(1) - -1)));
                if Hashtbl.mem seen row then Alcotest.fail "row repeated";
                Hashtbl.replace seen row ())
              rows);
        Alcotest.(check int) "every row covered" (5 * 5) (Hashtbl.length seen));
    wavefront_matrix_case "gs2d" wf_gs2d_src;
    wavefront_matrix_case "sor3d" wf_sor3d_src;
    case "wavefront: forced jobs=4 byte-identical to jobs=1" (fun () ->
        let prog = Artemis.parse_string wf_gs2d_src in
        let outs1, journal1 = wavefront_run_at_jobs prog 1 in
        let outs4, journal4 = wavefront_run_at_jobs prog 4 in
        check_identical "jobs=1 vs jobs=4" outs1 outs4;
        Alcotest.(check string) "journals byte-identical" journal1 journal4);
    case "wavefront sweeps feed the wavefront counter" (fun () ->
        let m_wf = Metrics.counter "exec.wavefront_points" in
        let m_gd = Metrics.counter "exec.guarded_points" in
        let prog = Artemis.parse_string wf_gs2d_src in
        let before_wf = Metrics.counter_value m_wf in
        ignore (reference_outputs split prog);
        Alcotest.(check bool) "wavefront points counted" true
          (Metrics.counter_value m_wf > before_wf);
        (* the guarded fallback charges the guarded counter instead *)
        let after_wf = Metrics.counter_value m_wf in
        let before_gd = Metrics.counter_value m_gd in
        ignore (reference_outputs no_wavefront prog);
        Alcotest.(check (float 0.0)) "fallback adds no wavefront points"
          after_wf (Metrics.counter_value m_wf);
        Alcotest.(check bool) "fallback charges guarded points" true
          (Metrics.counter_value m_gd > before_gd));
  ]

(* ---------------- the reference stays point-wise ---------------- *)

(* Schedule class of every statement of [prog]'s first kernel, compiled
   under [schedule] against its initial store (temporaries join the store,
   where [bind_temp] finds them). *)
let statement_classes schedule (prog : A.program) =
  let k = Artemis.first_kernel prog in
  let store = E.Reference.store_of_program prog in
  let scalars = E.Reference.scalars_of_program prog in
  let b =
    {
      Eval.bind_array = E.Reference.find_array store;
      bind_temp = Hashtbl.find_opt store;
      bind_scalar = (fun s -> List.assoc s scalars);
      binder_iters = k.iters;
    }
  in
  let identity = List.map (fun it -> A.index ~iter:it 0) k.iters in
  List.map
    (fun stmt ->
      let target, accum, idx, e =
        match stmt with
        | A.Decl_temp (t, e) ->
          Hashtbl.replace store t (E.Grid.create k.domain);
          (t, false, identity, e)
        | A.Assign (a, idx, e) -> (a, false, idx, e)
        | A.Accum (a, idx, e) -> (a, true, idx, e)
      in
      (Eval.compile_stmt ~schedule b ~target:(b.bind_array target) ~accum idx e).sx_class)
    k.body

let reference_tests =
  [
    case "interpreter classifies every statement guarded and sweeps no rows"
      (fun () ->
        (* The reference the split path is checked against must not share
           the row evaluator: under the interpreter no statement splits or
           takes the wavefront schedule, and no point is charged to an
           interior, wavefront or eliminated sweep. *)
        let counters =
          List.map Metrics.counter
            [ "exec.interior_points"; "exec.wavefront_points";
              "exec.eliminated_points" ]
        in
        List.iter
          (fun (name, prog) ->
            let is_guarded = function Eval.Sc_guarded -> true | _ -> false in
            Alcotest.(check bool)
              (name ^ ": split path has a non-guarded statement") true
              (not (List.for_all is_guarded (statement_classes split prog)));
            Alcotest.(check bool)
              (name ^ ": every statement guarded under the interpreter") true
              (List.for_all is_guarded (statement_classes interp prog));
            let before = List.map Metrics.counter_value counters in
            ignore (reference_outputs interp prog);
            ignore (runner_outputs interp Artemis_codegen.Options.default prog);
            Alcotest.(check (list (float 0.0)))
              (name ^ ": interior/wavefront/eliminated counters unchanged")
              before
              (List.map Metrics.counter_value counters))
          [ ("7pt-smoother", (Suite.at_size 12 (Suite.find "7pt-smoother")).prog);
            ("gs2d", Artemis.parse_string wf_gs2d_src) ]);
  ]

let tests =
  ( "split",
    region_tests @ interior_tests @ fallback_tests @ suite_mode_cases
    @ kernel_exec_mode_cases @ fuzz_mode_cases @ metrics_tests
    @ wavefront_tests @ reference_tests )
