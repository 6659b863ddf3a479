(* Traffic-accounting invariants: physically necessary inequalities that
   must hold for every plan, and directional properties the paper's
   analysis depends on (fusion reduces DRAM traffic, staging reduces
   texture traffic, spills add DRAM traffic, folding removes FLOPs). *)

module A = Artemis_dsl.Ast
module Plan = Artemis_ir.Plan
module E = Artemis_exec
module C = Artemis_gpu.Counters
module Suite = Artemis_bench.Suite
module O = Artemis_codegen.Options
module Lower = Artemis_codegen.Lower

let case name f = Alcotest.test_case name `Quick f
let dev = Artemis_gpu.Device.p100

let counters_of ?(size = 32) bname opts =
  let b = Suite.at_size size (Suite.find bname) in
  let k = List.hd (Suite.kernels b) in
  let p = Util.valid_lower k opts in
  (E.Analytic.measure (Util.valid p), k)

let invariants (m : E.Analytic.measurement) =
  let c = m.counters in
  let k = m.plan.kernel in
  let domain_pts =
    Array.fold_left (fun acc d -> acc *. float_of_int d) 1.0 k.domain
  in
  Alcotest.(check bool) "useful <= total flops" true
    (c.useful_flops <= c.total_flops +. 1e-6);
  Alcotest.(check bool) "useful flops positive" true (c.useful_flops > 0.0);
  (* useful flops cannot exceed flops/point x domain *)
  let fpp = float_of_int (Artemis_dsl.Analysis.flops_per_point k) in
  Alcotest.(check bool) "useful bounded by domain" true
    (c.useful_flops <= (fpp *. domain_pts) +. 1e-6);
  Alcotest.(check bool) "tex >= 32B x transactions" true
    (c.tex_bytes >= 32.0 *. (c.gld_transactions +. c.gst_transactions) -. 1e-6);
  (* DRAM cannot exceed the global-space traffic *)
  Alcotest.(check bool) "dram <= tex traffic" true (c.dram_bytes <= c.tex_bytes +. 1e-6);
  (* compulsory traffic: every output must be written once *)
  Alcotest.(check bool) "stores cover outputs" true (c.gst_transactions > 0.0);
  Alcotest.(check bool) "non-negative" true
    (c.shm_bytes >= 0.0 && c.spill_bytes >= 0.0 && c.syncs >= 0.0)

(* Tiled plans of every iterative suite kernel at sizes 45 and 48 (last
   tile partial or not), every other tiled block shape, shared memory on
   and off, temporal degree 2 with halo recompute and degree 4 under
   both halo policies.  The recompute trapezoid reaches degree x halo
   blocks in from each face. *)
let tiled_temporal_plans () =
  List.concat_map
    (fun size ->
      List.concat_map
        (fun (b : Suite.t) ->
          match b.pingpong with
          | Some pair when b.iterative ->
            let b = Suite.at_size size b in
            List.concat_map
              (fun k ->
                List.concat_map
                  (fun use_shared ->
                    let base =
                      Lower.lower dev k { O.default with O.scheme = O.Force_tiled; use_shared }
                    in
                    let blocks =
                      Artemis_tune.Space.block_candidates ~rank:(Plan.rank base)
                        ~scheme:base.scheme ~max_threads:dev.max_threads_per_block
                    in
                    List.concat_map
                      (fun block ->
                        List.concat_map
                          (fun (degree, halos) ->
                            List.map
                              (fun halo ->
                                { base with
                                  Plan.block;
                                  temporal = { Plan.no_temporal with degree; halo; pair = Some pair } })
                              halos)
                          [ (2, [ Plan.Halo_recompute ]);
                            (4, [ Plan.Halo_recompute; Plan.Halo_exchange ]) ])
                      (List.filteri (fun i _ -> i mod 2 = 0) blocks))
                  [ true; false ])
              (Suite.kernels b)
          | Some _ | None -> [])
        Suite.all)
    [ 45; 48 ]
  |> List.filter Artemis_ir.Validate.is_valid

let tests =
  ( "traffic",
    [
      case "class sum equals the block loop on tiled temporal plans" (fun () ->
          let plans = tiled_temporal_plans () in
          let wrong =
            List.filter
              (fun p ->
                let ctx = E.Traffic.make_ctx p in
                not (C.approx_equal (E.Traffic.total_counters ctx)
                       (E.Traffic.total_counters ~exact:true ctx)))
              plans
          in
          Printf.printf "%d tiled temporal plans, %d class sums differ\n" (List.length plans)
            (List.length wrong);
          List.iter (fun p -> print_endline (Plan.label p)) (List.filteri (fun i _ -> i < 5) wrong);
          Alcotest.(check int) "class sums off the block loop" 0 (List.length wrong));
      case "invariants hold across benchmarks and plans" (fun () ->
          List.iter
            (fun bname ->
              List.iter
                (fun opts -> invariants (fst (counters_of bname opts)))
                [ O.default; O.global_tiled; O.global_stream;
                  { O.default with O.prefetch = true };
                  { O.default with O.retime = true } ])
            [ "7pt-smoother"; "27pt-smoother"; "hypterm"; "rhs4center" ]);
      case "staging reduces texture traffic" (fun () ->
          let shm, _ = counters_of "7pt-smoother" O.default in
          let glob, _ = counters_of "7pt-smoother" O.global_stream in
          Alcotest.(check bool) "tex bytes drop" true
            (shm.counters.tex_bytes < glob.counters.tex_bytes));
      case "staging adds shared traffic" (fun () ->
          let shm, _ = counters_of "7pt-smoother" O.default in
          let glob, _ = counters_of "7pt-smoother" O.global_stream in
          Alcotest.(check bool) "shm bytes appear" true
            (shm.counters.shm_bytes > 0.0 && glob.counters.shm_bytes = 0.0));
      case "temporal fusion reduces DRAM bytes per sweep" (fun () ->
          let b = Suite.at_size 64 (Suite.find "7pt-smoother") in
          let k = List.hd (Suite.kernels b) in
          let fused f = Artemis_fuse.Fusion.time_fuse k ~out:"out" ~inp:"in" ~f in
          let dram_per_sweep f =
            let p = Lower.lower dev (fused f) O.default in
            (E.Analytic.measure (Util.valid p)).counters.dram_bytes /. float_of_int f
          in
          Alcotest.(check bool) "2x1 < 1x1" true (dram_per_sweep 2 < dram_per_sweep 1);
          Alcotest.(check bool) "3x1 < 2x1" true (dram_per_sweep 3 < dram_per_sweep 2));
      case "temporal fusion raises redundancy" (fun () ->
          let b = Suite.at_size 64 (Suite.find "7pt-smoother") in
          let k = List.hd (Suite.kernels b) in
          let red f =
            let fused = Artemis_fuse.Fusion.time_fuse k ~out:"out" ~inp:"in" ~f in
            let p = Lower.lower dev fused O.default in
            C.redundancy (E.Analytic.measure (Util.valid p)).counters
          in
          Alcotest.(check bool) "monotone" true (red 3 > red 2 && red 2 > red 1));
      case "retiming reduces shared loads for 27pt" (fun () ->
          let plain, _ = counters_of "27pt-smoother" O.default in
          let ret, _ = counters_of "27pt-smoother" { O.default with O.retime = true } in
          Alcotest.(check bool) "fewer shm loads" true
            (ret.counters.shm_ld < plain.counters.shm_ld));
      case "retiming shrinks the shared footprint of 27pt" (fun () ->
          let plain, _ = counters_of "27pt-smoother" O.default in
          let ret, _ = counters_of "27pt-smoother" { O.default with O.retime = true } in
          Alcotest.(check bool) "smaller buffers" true
            (ret.resources.shared_per_block < plain.resources.shared_per_block));
      case "spills charge DRAM traffic" (fun () ->
          let b = Suite.at_size 32 (Suite.find "rhs4sgcurv") in
          let k = List.hd (Suite.kernels b) in
          let p = Util.valid_lower k O.default in
          let m = E.Analytic.measure (Util.valid p) in
          Alcotest.(check bool) "spilling" true (m.resources.spilled_doubles > 0);
          Alcotest.(check bool) "spill bytes" true (m.counters.spill_bytes > 0.0));
      case "smaller blocks mean more redundant staged loads" (fun () ->
          let small, _ =
            counters_of "rhs4center" { O.default with O.block = Some [| 1; 8; 8 |] }
          in
          let big, _ =
            counters_of "rhs4center" { O.default with O.block = Some [| 1; 16; 16 |] }
          in
          Alcotest.(check bool) "more gld" true
            (small.counters.gld_transactions > big.counters.gld_transactions));
      case "folding removes executed FLOPs but not useful ones" (fun () ->
          let prog =
            Artemis.parse_string
              {|parameter L=16; iterator k, j, i;
                double p[L,L,L], q[L,L,L], o[L,L,L];
                stencil s0 (O, P, Q) {
                  O[k][j][i] = P[k][j][i+1]*Q[k][j][i+1] + P[k][j][i-1]*Q[k][j][i-1]
                    + P[k][j+1][i]*Q[k][j+1][i] + P[k][j-1][i]*Q[k][j-1][i];
                }
                s0 (o, p, q);|}
          in
          let k =
            match Artemis_dsl.Instantiate.schedule prog with
            | [ Artemis_dsl.Instantiate.Launch k ] -> k
            | _ -> assert false
          in
          let plain = E.Analytic.measure (Util.valid (Lower.lower dev k O.default)) in
          let folded =
            E.Analytic.measure (Util.valid (Lower.lower dev k { O.default with O.fold = true }))
          in
          Alcotest.(check bool) "fold enabled" true (folded.plan.fold <> []);
          Alcotest.(check bool) "fewer executed flops" true
            (folded.counters.total_flops < plain.counters.total_flops);
          Alcotest.(check (float 1.0)) "same useful flops"
            plain.counters.useful_flops folded.counters.useful_flops;
          Alcotest.(check bool) "fewer shared loads" true
            (folded.counters.shm_ld < plain.counters.shm_ld));
      case "output perspective pays extra boundary sectors vs mixed" (fun () ->
          (* Qualitative: mixed perspective never issues more load
             transactions than output perspective on the same shape. *)
          let outp, _ = counters_of "7pt-smoother" O.default in
          let mixed, _ =
            counters_of "7pt-smoother"
              { O.default with O.perspective = Plan.Mixed_persp }
          in
          Alcotest.(check bool) "mixed <= output" true
            (mixed.counters.gld_transactions <= outp.counters.gld_transactions +. 1e-6));
    ] )
