(* GPU substrate tests: device constants, occupancy calculator (checked
   against hand-computed CUDA occupancy numbers), coalescing model, and
   the timing model's qualitative properties. *)

open Artemis_gpu

let case name f = Alcotest.test_case name `Quick f
let fl = Alcotest.float 1e-9

let p100 = Device.p100

let occ ?(shm = 0) ?(regs = 32) threads =
  Occupancy.calculate p100
    { threads_per_block = threads; regs_per_thread = regs; shared_per_block = shm }

let tests =
  ( "gpu",
    [
      case "p100 machine balances match the paper" (fun () ->
          Alcotest.check fl "alpha/beta_dram" 6.42 (Device.knee_dram p100);
          Alcotest.check fl "alpha/beta_tex" 2.35 (Device.knee_tex p100);
          Alcotest.check fl "alpha/beta_shm" 0.49 (Device.knee_shm p100));
      case "occupancy: 256 threads, light usage" (fun () ->
          let r = occ 256 in
          (* 2048 / 256 = 8 blocks by threads; 65536/(32*256) = 8 by regs. *)
          Alcotest.(check int) "blocks" 8 r.blocks_per_sm;
          Alcotest.check fl "occ" 1.0 r.occupancy);
      case "occupancy: register-limited" (fun () ->
          let r = occ ~regs:255 256 in
          (* 65536 / (256*256) = 1 block *)
          Alcotest.(check int) "blocks" 1 r.blocks_per_sm;
          Alcotest.check fl "occ" 0.125 r.occupancy;
          Alcotest.(check string) "limiter" "registers"
            (Occupancy.limiter_to_string r.limiter));
      case "occupancy: shared-limited" (fun () ->
          let r = occ ~shm:(24 * 1024) 128 in
          (* 64KB / 24KB = 2 blocks *)
          Alcotest.(check int) "blocks" 2 r.blocks_per_sm;
          Alcotest.(check string) "limiter" "shared memory"
            (Occupancy.limiter_to_string r.limiter));
      case "occupancy: per-block shared limit enforced" (fun () ->
          let r = occ ~shm:(49 * 1024) 128 in
          Alcotest.(check int) "blocks" 0 r.blocks_per_sm);
      case "occupancy: oversized block rejected" (fun () ->
          let r = occ 2048 in
          Alcotest.(check int) "blocks" 0 r.blocks_per_sm);
      case "occupancy: thread rounding to warps" (fun () ->
          let r = occ 48 in
          (* 48 threads allocate 2 warps = 64 thread slots: 2048/64 = 32 ->
             capped by the 32-block slot limit. *)
          Alcotest.(check int) "blocks" 32 r.blocks_per_sm);
      case "occupancy monotone in register usage" (fun () ->
          let prev = ref max_int in
          List.iter
            (fun regs ->
              let b = (occ ~regs 256).blocks_per_sm in
              Alcotest.(check bool) "monotone" true (b <= !prev);
              prev := b)
            [ 32; 48; 64; 96; 128; 192; 255 ]);
      case "max_regs_for_occupancy picks the largest viable step" (fun () ->
          match
            Occupancy.max_regs_for_occupancy p100 ~threads_per_block:256
              ~shared_per_block:0 ~target:0.25
          with
          | Some r ->
            (* 0.25 occupancy needs 2 blocks of 256: regs <= 128. *)
            Alcotest.(check int) "255 fails, 128 works" 128 r
          | None -> Alcotest.fail "expected some step");
      case "coalescing: aligned row of 32 doubles = 8 sectors" (fun () ->
          Alcotest.(check int) "sectors" 8
            (Coalesce.run_sectors ~elem_bytes:8 ~first:0 ~n:32));
      case "coalescing: misaligned row pays one extra sector" (fun () ->
          Alcotest.(check int) "sectors" 9
            (Coalesce.run_sectors ~elem_bytes:8 ~first:1 ~n:32));
      case "coalescing: strided by >= sector = one sector per lane" (fun () ->
          Alcotest.(check int) "sectors" 32
            (Coalesce.strided_sectors ~elem_bytes:8 ~first:0 ~lanes:32 ~stride:8));
      case "coalescing: stride 2 halves efficiency" (fun () ->
          Alcotest.(check int) "sectors" 16
            (Coalesce.strided_sectors ~elem_bytes:8 ~first:0 ~lanes:32 ~stride:2));
      case "timing: dram-bound kernel time equals bytes/bw" (fun () ->
          let c = { Counters.zero with total_flops = 1e9; useful_flops = 1e9;
                    dram_bytes = 1e10 } in
          let w =
            { Timing.counters = c; occupancy = occ 256; ilp = 8.0; blocks = 1000;
              threads_per_block = 256; prefetch = false; serial_waves = 1 }
          in
          let b = Timing.evaluate p100 w in
          Alcotest.(check bool) "dram bound" true (b.bottleneck = Timing.Dram_bound);
          Alcotest.check (Alcotest.float 1e-6) "time" (1e10 /. p100.dram_bw) b.t_total);
      case "timing: zero occupancy is infinite time" (fun () ->
          let w =
            { Timing.counters = Counters.zero; occupancy = occ ~regs:255 2048;
              ilp = 1.0; blocks = 1; threads_per_block = 2048; prefetch = false;
              serial_waves = 1 }
          in
          let b = Timing.evaluate p100 w in
          Alcotest.(check bool) "infinite" true (b.t_total = infinity));
      case "timing: low occupancy degrades compute-bound kernels" (fun () ->
          let c = { Counters.zero with total_flops = 1e12; useful_flops = 1e12 } in
          let mk regs =
            let w =
              { Timing.counters = c; occupancy = occ ~regs 256; ilp = 1.6;
                blocks = 10000; threads_per_block = 256; prefetch = false;
                serial_waves = 1 }
            in
            (Timing.evaluate p100 w).t_total
          in
          Alcotest.(check bool) "255 regs slower than 64" true (mk 255 > mk 64));
      case "timing: prefetch reduces sync stall" (fun () ->
          let c = { Counters.zero with total_flops = 1e10; useful_flops = 1e10;
                    syncs = 1e7 } in
          let mk prefetch =
            let w =
              { Timing.counters = c; occupancy = occ 256; ilp = 4.0;
                blocks = 10000; threads_per_block = 256; prefetch; serial_waves = 1 }
            in
            (Timing.evaluate p100 w).t_sync
          in
          Alcotest.(check bool) "prefetch cheaper" true (mk true < mk false));
      case "counters: OI definitions" (fun () ->
          let c = { Counters.zero with total_flops = 100.0; dram_bytes = 50.0;
                    tex_bytes = 25.0; shm_bytes = 200.0 } in
          Alcotest.check fl "oi dram" 2.0 (Counters.oi_dram c);
          Alcotest.check fl "oi tex" 4.0 (Counters.oi_tex c);
          Alcotest.check fl "oi shm" 0.5 (Counters.oi_shm c));
      case "counters: add and scale" (fun () ->
          let c = { Counters.zero with dram_bytes = 3.0; syncs = 2.0 } in
          let d = Counters.add c (Counters.scale 2.0 c) in
          Alcotest.check fl "dram" 9.0 d.dram_bytes;
          Alcotest.check fl "syncs" 6.0 d.syncs);
      case "v100 differs from p100 where it should" (fun () ->
          Alcotest.(check bool) "more SMs" true (Device.v100.sms > p100.sms);
          Alcotest.(check bool) "more shared" true
            (Device.v100.shared_per_sm > p100.shared_per_sm));
    ] )
