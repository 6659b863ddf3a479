(* Property-based tests (qcheck, registered as alcotest cases): parser
   round-trips on generated expressions, analysis invariants, generator
   exactness, occupancy monotonicity, DP optimality, box arithmetic. *)

open Artemis_dsl
module A = Ast
module B = Builder
module An = Analysis
module I = Instantiate
module Q = QCheck

let to_alcotest = QCheck_alcotest.to_alcotest

(* ---------------- generators ---------------- *)

let gen_scalar_name = Q.Gen.oneofl [ "a"; "b"; "w"; "dt" ]
let gen_array_name = Q.Gen.oneofl [ "u"; "v"; "p" ]
let gen_iter = Q.Gen.oneofl [ (0, "k"); (1, "j"); (2, "i") ]

let gen_access =
  Q.Gen.(
    gen_array_name >>= fun arr ->
    map3
      (fun dk dj di -> B.a3 arr (dk, dj, di))
      (int_range (-3) 3) (int_range (-3) 3) (int_range (-3) 3))

let gen_expr =
  Q.Gen.(
    sized (fun n ->
        fix
          (fun self n ->
            if n <= 1 then
              oneof
                [ map (fun f -> A.Const (Float.of_int f *. 0.25)) (int_range (-8) 8);
                  map (fun s -> A.Scalar_ref s) gen_scalar_name;
                  gen_access ]
            else
              oneof
                [ map2 (fun a b -> A.Bin (A.Add, a, b)) (self (n / 2)) (self (n / 2));
                  map2 (fun a b -> A.Bin (A.Sub, a, b)) (self (n / 2)) (self (n / 2));
                  map2 (fun a b -> A.Bin (A.Mul, a, b)) (self (n / 2)) (self (n / 2));
                  map
                    (fun a ->
                      (* parsers fold [- c] into the constant *)
                      match a with A.Const c -> A.Const (-.c) | a -> A.Neg a)
                    (self (n - 1));
                  map (fun a -> A.Call ("fabs", [ a ])) (self (n - 1)) ])
          (min n 12)))

let arbitrary_expr = Q.make ~print:Pretty.expr_to_string gen_expr

(* Build a one-statement kernel around an expression for analysis props. *)
let kernel_of_expr e =
  let prog =
    B.program
      ~params:[ ("L", 16) ]
      ~decls:
        [ B.array "u" [ "L"; "L"; "L" ]; B.array "v" [ "L"; "L"; "L" ];
          B.array "p" [ "L"; "L"; "L" ]; B.array "o" [ "L"; "L"; "L" ];
          B.scalar "a"; B.scalar "b"; B.scalar "w"; B.scalar "dt" ]
      ~stencils:
        [ B.stencil "s0" [ "o"; "u"; "v"; "p"; "a"; "b"; "w"; "dt" ]
            [ B.assign3 "o" e ] ]
      ~main:[ A.Run (A.Apply ("s0", [ "o"; "u"; "v"; "p"; "a"; "b"; "w"; "dt" ])) ]
      ()
  in
  match I.schedule prog with
  | [ I.Launch k ] -> k
  | _ -> assert false

(* ---------------- properties ---------------- *)

let prop_expr_roundtrip =
  Q.Test.make ~name:"pretty-printed expressions reparse to themselves"
    ~count:500 arbitrary_expr (fun e ->
      Parser.parse_expr_string (Pretty.expr_to_string e) = e)

let prop_order_is_max_offset =
  Q.Test.make ~name:"stencil order = max |read shift|" ~count:300 arbitrary_expr
    (fun e ->
      let k = kernel_of_expr e in
      let expected =
        List.fold_left
          (fun acc (a : An.access) ->
            Array.fold_left
              (fun acc (it, s) -> if it = None then acc else max acc (abs s))
              acc a.binding)
          0 (An.read_accesses k)
      in
      An.stencil_order k = expected)

let prop_decompose_preserves_flops =
  Q.Test.make ~name:"statement decomposition preserves FLOPs" ~count:300
    arbitrary_expr (fun e ->
      let k = kernel_of_expr e in
      let dec = Artemis_codegen.Retime.decompose_kernel k in
      An.flops_per_point k = An.flops_per_point dec)

(* Decomposed sub-statements carry narrower guards than the original
   statement (a term without array reads runs everywhere), so values can
   differ at domain faces — compare the interior, where the guards agree. *)
let prop_decompose_preserves_semantics =
  Q.Test.make ~name:"statement decomposition preserves values (interior, 1e-9)"
    ~count:60 arbitrary_expr (fun e ->
      let module E = Artemis_exec in
      let k = kernel_of_expr e in
      let dec = Artemis_codegen.Retime.decompose_kernel k in
      let scalars = [ ("a", 0.3); ("b", 0.7); ("w", 1.1); ("dt", 0.05) ] in
      let store name =
        let s : E.Reference.store = Hashtbl.create 8 in
        List.iteri
          (fun i arr ->
            let g = E.Grid.create [| 8; 8; 8 |] in
            E.Grid.init_pattern ~seed:(i + 1) g;
            Hashtbl.replace s arr g)
          [ "u"; "v"; "p"; "o" ];
        ignore name;
        s
      in
      let s1 = store "plain" and s2 = store "dec" in
      E.Reference.run_kernel s1 ~scalars { k with I.domain = [| 8; 8; 8 |] };
      E.Reference.run_kernel s2 ~scalars { dec with I.domain = [| 8; 8; 8 |] };
      let scale =
        Array.fold_left (fun m v -> Float.max m (Float.abs v)) 1.0
          (E.Reference.find_array s1 "o").E.Grid.data
      in
      E.Grid.max_abs_diff_interior ~margin:3
        (E.Reference.find_array s1 "o")
        (E.Reference.find_array s2 "o")
      <= 1e-9 *. scale)

let prop_required_extents_cover_reads =
  Q.Test.make ~name:"required extents cover every read offset" ~count:300
    arbitrary_expr (fun e ->
      let k = kernel_of_expr e in
      let exts = An.required_extents k in
      List.for_all
        (fun (a : An.access) ->
          match Hashtbl.find_opt exts a.array with
          | None -> false
          | Some ext ->
            let ov = An.offset_vector k.iters a in
            Array.for_all
              (fun d ->
                let lo, hi = ext.(d) in
                lo <= ov.(d) && ov.(d) <= hi)
              (Array.init 3 Fun.id))
        (An.read_accesses k))

let prop_pad_exact =
  Q.Test.make ~name:"pad_to lands on any target >= base" ~count:200
    Q.(int_range 1 2000)
    (fun target ->
      let body =
        [ B.assign3 "o" (B.a3 "u" (0, 0, 0)) ]
        |> Artemis_bench.Stencil_gen.pad_to ~target ~out:"o" ~arr:"u"
      in
      List.fold_left (fun acc st -> acc + An.flops_of_stmt st) 0 body = target)

let prop_occupancy_monotone_regs =
  Q.Test.make ~name:"occupancy non-increasing in registers" ~count:200
    Q.(pair (int_range 32 1024) (int_range 16 200))
    (fun (threads, regs) ->
      let module Occ = Artemis_gpu.Occupancy in
      let dev = Artemis_gpu.Device.p100 in
      let o1 =
        (Occ.calculate dev
           { threads_per_block = threads; regs_per_thread = regs; shared_per_block = 0 })
          .blocks_per_sm
      in
      let o2 =
        (Occ.calculate dev
           { threads_per_block = threads; regs_per_thread = regs + 8;
             shared_per_block = 0 })
          .blocks_per_sm
      in
      o2 <= o1)

let prop_occupancy_monotone_shared =
  Q.Test.make ~name:"occupancy non-increasing in shared memory" ~count:200
    Q.(pair (int_range 32 1024) (int_range 0 40000))
    (fun (threads, shm) ->
      let module Occ = Artemis_gpu.Occupancy in
      let dev = Artemis_gpu.Device.p100 in
      let blocks shm =
        (Occ.calculate dev
           { threads_per_block = threads; regs_per_thread = 32; shared_per_block = shm })
          .blocks_per_sm
      in
      blocks (shm + 1024) <= blocks shm)

let prop_run_sectors_bounds =
  Q.Test.make ~name:"coalescing sector counts are tight" ~count:500
    Q.(pair (int_range 0 64) (int_range 1 512))
    (fun (first, n) ->
      let module Co = Artemis_gpu.Coalesce in
      let s = Co.run_sectors ~elem_bytes:8 ~first ~n in
      let lower = (n + 3) / 4 in
      s >= lower && s <= lower + 1)

let prop_dp_matches_bruteforce =
  Q.Test.make ~name:"fusion DP optimal vs brute force on random tables"
    ~count:100
    Q.(list_of_size (Q.Gen.int_range 1 4) (float_range 0.1 3.0))
    (fun times ->
      Q.assume (times <> []);
      let module Deep = Artemis_tune.Deep in
      (* fabricate a version list with the random per-launch times *)
      let dev = Artemis_gpu.Device.p100 in
      let k =
        List.hd
          (Artemis_bench.Suite.kernels
             (Artemis_bench.Suite.at_size 8 (Artemis_bench.Suite.find "7pt-smoother")))
      in
      let base = Artemis_codegen.Lower.lower dev k Artemis_codegen.Options.default in
      let m0 = Artemis_exec.Analytic.measure (Util.valid base) in
      let versions =
        List.mapi
          (fun i t ->
            {
              Deep.time_tile = i + 1;
              degree = 1;
              record =
                { Artemis_tune.Hierarchical.best = { m0 with time_s = t };
                  explored = 0; phase1_best = m0; history = [] };
              profile =
                Artemis_profile.Classify.classify dev Artemis_gpu.Counters.zero
                  ~time_s:1.0;
              time_per_sweep = t /. float_of_int (i + 1);
            })
          times
      in
      let r = { Deep.versions; cusp = 1; tipping_point = 1 } in
      List.for_all
        (fun t ->
          let _, dp = Deep.optimal_schedule r ~t in
          let _, bf = Deep.brute_force_schedule r ~t in
          Float.abs (dp -. bf) < 1e-9)
        [ 3; 7; 11 ])

let prop_box_volume =
  Q.Test.make ~name:"box intersection volume bounded by both" ~count:300
    Q.(list_of_size (Q.Gen.return 3) (pair (int_range (-5) 10) (int_range (-5) 10)))
    (fun pairs ->
      let module S = Artemis_static.Static in
      let b1 = Array.of_list (List.map (fun (a, b) -> (min a b, max a b)) pairs) in
      let b2 = Array.map (fun (lo, hi) -> (lo + 1, hi + 2)) b1 in
      let v = S.box_volume (S.box_inter b1 b2) in
      v <= S.box_volume b1 && v <= S.box_volume b2)

(* The per-point store initializer the separable [Grid.init_pattern]
   replaced: decompose each linear index, sum one [sin] term per
   dimension, add the hash noise.  Kept as the oracle. *)
let init_pattern_per_point ~seed (g : Artemis_exec.Grid.t) =
  let r = Array.length g.dims in
  let coords = Array.make r 0 in
  for lin = 0 to Array.length g.data - 1 do
    let rem = ref lin in
    for d = 0 to r - 1 do
      coords.(d) <- !rem / g.strides.(d);
      rem := !rem mod g.strides.(d)
    done;
    let smooth = ref 0.0 in
    Array.iteri
      (fun d c ->
        smooth := !smooth +. sin (float_of_int ((d + seed) * (c + 1)) *. 0.17))
      coords;
    let h = (lin * 2654435761) land 0xFFFF in
    g.data.(lin) <- !smooth +. (float_of_int h /. 65536.0)
  done

let prop_init_pattern_matches_per_point =
  Q.Test.make ~name:"separable init_pattern is bit-identical to per-point"
    ~count:300
    Q.(pair (int_range (-2) 9) (list_of_size (Q.Gen.int_range 0 4) (int_range 1 7)))
    (fun (seed, dims) ->
      let module G = Artemis_exec.Grid in
      let dims = Array.of_list dims in
      let a = G.create dims and b = G.create dims in
      G.init_pattern ~seed a;
      init_pattern_per_point ~seed b;
      Array.for_all2
        (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
        a.data b.data)

let tests =
  ( "properties",
    List.map to_alcotest
      [ prop_expr_roundtrip; prop_order_is_max_offset;
        prop_decompose_preserves_flops; prop_decompose_preserves_semantics;
        prop_required_extents_cover_reads; prop_pad_exact;
        prop_occupancy_monotone_regs; prop_occupancy_monotone_shared;
        prop_run_sectors_bounds; prop_dp_matches_bruteforce; prop_box_volume;
        prop_init_pattern_matches_per_point ] )
