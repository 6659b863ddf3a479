(* IR tests: launch geometry, staging layout, resource estimation, and
   plan validation. *)

open Artemis_dsl
module A = Ast
module I = Instantiate
module Plan = Artemis_ir.Plan
module Launch = Artemis_ir.Launch
module Estimate = Artemis_ir.Estimate
module Validate = Artemis_ir.Validate
module Kernel_facts = Artemis_ir.Kernel_facts

let case name f = Alcotest.test_case name `Quick f
let dev = Artemis_gpu.Device.p100

let jacobi_kernel ?(n = 64) () =
  let b = Artemis_bench.Suite.at_size n (Artemis_bench.Suite.find "7pt-smoother") in
  List.hd (Artemis_bench.Suite.kernels b)

let plan ?(scheme = Plan.Serial_stream 0) ?(block = [| 1; 16; 32 |])
    ?(unroll = [| 1; 1; 1 |]) ?(placement = [ ("in", A.Shmem) ]) ?(retime = false) k =
  { (Plan.default dev k) with Plan.scheme; block; unroll; placement; retime }

(* Every suite kernel at full size, each retimed along every dimension
   it retimes along, and the pricing pin's generated corpus. *)
let facts_kernels () =
  let suite = List.concat_map Artemis_bench.Suite.kernels Artemis_bench.Suite.all in
  let retimed =
    List.concat_map
      (fun (k : I.kernel) ->
        List.filter_map
          (fun d -> Artemis_codegen.Retime.apply k ~dim_index:d)
          (List.init (List.length k.iters) Fun.id))
      suite
  in
  let generated =
    List.concat_map
      (fun index ->
        Test_pricing.program_kernels
          (Artemis_verify.Gen.generate ~seed:Test_pricing.edge_seed ~index).prog)
      (List.init Test_pricing.edge_cases Fun.id)
  in
  suite @ retimed @ generated

(* Each field of the facts record against the stand-alone function it
   replaces, and the facts of a [Marshal] copy against the original's. *)
let check_facts (k : I.kernel) =
  let f = Kernel_facts.of_kernel k in
  let expect what ok = if not ok then Alcotest.failf "%s: %s differs" k.kname what in
  let copy : I.kernel = Marshal.from_string (Marshal.to_string k []) 0 in
  expect "facts of a copy" (Kernel_facts.of_kernel copy = f);
  expect "read_accesses" (f.read_accesses = Analysis.read_accesses k);
  let exts = Analysis.required_extents k in
  let sorted_exts = List.sort compare (Hashtbl.fold (fun a e acc -> (a, e) :: acc) exts []) in
  expect "required_extents" (f.required_extents = sorted_exts);
  expect "distinct_offsets" (f.distinct_offsets = Analysis.distinct_offsets k);
  expect "reads_per_point" (f.reads_per_point = Analysis.reads_per_point k);
  expect "self_deps"
    (f.self_deps = List.map (Artemis_static.Static.self_dependences ~iters:k.iters) k.body);
  let written = List.filter_map A.written_array k.body in
  let input_extent =
    List.fold_left
      (fun acc (a, _) ->
        match Hashtbl.find_opt exts a with
        | Some e when not (List.mem a written) -> Analysis.union_extent acc e
        | Some _ | None -> acc)
      (Analysis.zero_extent (Array.length k.domain)) k.arrays
  in
  expect "input_extent" (f.input_extent = input_extent);
  expect "launch input extent"
    ((Launch.geometry (Plan.default dev k)).input_extent = input_extent)

let tests =
  ( "ir",
    [
      case "geometry: tiled grid covers the domain" (fun () ->
          let k = jacobi_kernel () in
          let p = plan ~scheme:Plan.Tiled ~block:[| 4; 4; 16 |] ~placement:[] k in
          let g = Launch.geometry p in
          Alcotest.(check bool) "tile" true (g.tile = [| 4; 4; 16 |]);
          Alcotest.(check bool) "grid" true (g.grid = [| 16; 16; 4 |]);
          Alcotest.(check int) "blocks" (16 * 16 * 4) g.total_blocks);
      case "geometry: serial streaming walks the whole dimension" (fun () ->
          let k = jacobi_kernel () in
          let g = Launch.geometry (plan k) in
          Alcotest.(check bool) "tile z = 64" true (g.tile.(0) = 64);
          Alcotest.(check bool) "grid z = 1" true (g.grid.(0) = 1);
          Alcotest.(check int) "steps = 64 + window" 66 g.steps_per_block);
      case "geometry: concurrent streaming chunks the dimension" (fun () ->
          let k = jacobi_kernel () in
          let g = Launch.geometry (plan ~scheme:(Plan.Concurrent_stream (0, 16)) k) in
          Alcotest.(check bool) "grid z = 4" true (g.grid.(0) = 4);
          Alcotest.(check int) "steps" 18 g.steps_per_block);
      case "geometry: unroll multiplies the tile" (fun () ->
          let k = jacobi_kernel () in
          let g = Launch.geometry (plan ~unroll:[| 1; 2; 1 |] k) in
          Alcotest.(check bool) "tile y" true (g.tile.(1) = 32));
      case "geometry: interior excludes the halo ring" (fun () ->
          let k = jacobi_kernel () in
          let g = Launch.geometry (plan k) in
          Alcotest.(check bool) "lo" true (g.interior_lo = [| 1; 1; 1 |]);
          Alcotest.(check bool) "hi" true (g.interior_hi = [| 62; 62; 62 |]));
      case "staging: 7pt in stream mode uses 1 shared + 2 reg planes" (fun () ->
          let k = jacobi_kernel () in
          let bufs = Launch.buffers (plan k) in
          match List.find_opt (fun (b : Launch.buffer) -> b.array = "in") bufs with
          | Some { staging = Launch.Stage_stream { shared_planes; reg_planes; _ }; _ } ->
            Alcotest.(check (list int)) "shared" [ 0 ] shared_planes;
            Alcotest.(check (list int)) "regs" [ -1; 1 ] reg_planes
          | _ -> Alcotest.fail "expected stream staging for in");
      case "staging: retiming collapses to the center plane" (fun () ->
          let k = jacobi_kernel () in
          let bufs = Launch.buffers (plan ~retime:true k) in
          match List.find_opt (fun (b : Launch.buffer) -> b.array = "in") bufs with
          | Some { staging = Launch.Stage_stream { shared_planes; reg_planes; _ }; _ } ->
            Alcotest.(check (list int)) "shared" [ 0 ] shared_planes;
            Alcotest.(check (list int)) "regs" [] reg_planes
          | _ -> Alcotest.fail "expected stream staging");
      case "staging: tiled mode stages the full halo tile" (fun () ->
          let k = jacobi_kernel () in
          let p = plan ~scheme:Plan.Tiled ~block:[| 4; 4; 16 |] k in
          let bufs = Launch.buffers p in
          (match List.find_opt (fun (b : Launch.buffer) -> b.array = "in") bufs with
           | Some { staging = Launch.Stage_tile { halo }; _ } ->
             Alcotest.(check bool) "halo" true
               (halo = [| (-1, 1); (-1, 1); (-1, 1) |])
           | _ -> Alcotest.fail "expected tile staging");
          (* (4+2)*(4+2)*(16+2)*8 bytes *)
          Alcotest.(check int) "shared bytes" (6 * 6 * 18 * 8)
            (Launch.shared_bytes_per_block p (Launch.geometry p) bufs));
      case "staging: shared plane bytes" (fun () ->
          let k = jacobi_kernel () in
          let p = plan k in
          let bufs = Launch.buffers p in
          (* one plane of (16+2) x (32+2) doubles *)
          Alcotest.(check int) "bytes" (18 * 34 * 8)
            (Launch.shared_bytes_per_block p (Launch.geometry p) bufs));
      case "syncs: streaming pays two barriers per plane step" (fun () ->
          let k = jacobi_kernel () in
          let p = plan k in
          let g = Launch.geometry p in
          Alcotest.(check int) "syncs" (2 * g.steps_per_block)
            (Launch.syncs_per_block p g (Launch.buffers p)));
      case "syncs: no shared memory, no barriers" (fun () ->
          let k = jacobi_kernel () in
          let p = plan ~placement:[] k in
          Alcotest.(check int) "syncs" 0
            (Launch.syncs_per_block p (Launch.geometry p) (Launch.buffers p)));
      case "estimate: unrolling raises register pressure" (fun () ->
          let k = jacobi_kernel () in
          let r1 = (Estimate.resources (plan k)).regs_per_thread in
          let r2 =
            (Estimate.resources (plan ~unroll:[| 1; 4; 1 |] ~block:[| 1; 4; 32 |] k))
              .regs_per_thread
          in
          Alcotest.(check bool) "more regs" true (r2 > r1));
      case "estimate: prefetch adds staging registers" (fun () ->
          let k = jacobi_kernel () in
          let base = plan k in
          let r1 = (Estimate.resources base).regs_per_thread in
          let r2 = (Estimate.resources { base with Plan.prefetch = true }).regs_per_thread in
          Alcotest.(check bool) "more regs" true (r2 > r1));
      case "estimate: spills appear when the budget shrinks" (fun () ->
          let k =
            List.hd (Artemis_bench.Suite.kernels (Artemis_bench.Suite.find "rhs4sgcurv"))
          in
          let p = { (Plan.default dev k) with Plan.max_regs = 255 } in
          let r = Estimate.resources p in
          Alcotest.(check bool) "maxfuse spills even at 255" true
            (r.spilled_doubles > 0));
      case "estimate: ILP grows with unrolling" (fun () ->
          let k = jacobi_kernel () in
          let i1 = (Estimate.resources (plan k)).ilp in
          let i2 =
            (Estimate.resources (plan ~unroll:[| 1; 4; 1 |] ~block:[| 1; 4; 32 |] k)).ilp
          in
          Alcotest.(check bool) "ilp grows" true (i2 > i1));
      case "validate: good plan passes" (fun () ->
          Alcotest.(check (list string)) "no violations" []
            (List.map Validate.violation_to_string (Validate.violations (plan (jacobi_kernel ())))));
      case "validate: oversized block rejected" (fun () ->
          let p = plan ~block:[| 1; 64; 32 |] (jacobi_kernel ()) in
          Alcotest.(check bool) "invalid" false (Validate.is_valid p));
      case "validate: streamed dim must have one thread" (fun () ->
          let p = plan ~block:[| 2; 16; 32 |] (jacobi_kernel ()) in
          Alcotest.(check bool) "invalid" false (Validate.is_valid p));
      case "validate: cuda z-extent cap" (fun () ->
          let p =
            plan ~scheme:Plan.Tiled ~block:[| 128; 2; 4 |] ~placement:[]
              (jacobi_kernel ())
          in
          Alcotest.(check bool) "invalid" false (Validate.is_valid p));
      case "validate: register budget cap" (fun () ->
          let p = { (plan (jacobi_kernel ())) with Plan.max_regs = 300 } in
          Alcotest.(check bool) "invalid" false (Validate.is_valid p));
      case "validate: zero-occupancy plans rejected" (fun () ->
          let k =
            List.hd (Artemis_bench.Suite.kernels (Artemis_bench.Suite.find "rhs4center"))
          in
          (* 243 regs x 1024 threads cannot launch *)
          let p =
            { (Plan.default dev k) with
              Plan.scheme = Plan.Serial_stream 0; block = [| 1; 32; 32 |] }
          in
          Alcotest.(check bool) "invalid" false (Validate.is_valid p));
      case "plan label is deterministic" (fun () ->
          let p = plan (jacobi_kernel ()) in
          Alcotest.(check string) "label" (Plan.label p) (Plan.label p));
      case "kernel facts are a pure function of the kernel" (fun () ->
          List.iter check_facts (facts_kernels ()));
    ] )
