(* Tuner per-candidate pricing pin: the register-stepping result, the
   pre-rank score and the full analytic measurement of every candidate
   the hierarchical tuner can consider, rendered with %h (exact float
   bits) and digested, the pre-rank scores in a digest of their own.
   Per-kernel caching and read merging must leave
   every one of these values bit-identical: one ulp of drift in one
   counter of one candidate fails here.

   The candidate set: every suite kernel's phase-1 set (block x unroll)
   with shared memory on and off, plus every [variant_stride]-th phase-1
   candidate expanded into its phase-2 variants (prefetch, perspective,
   retime, concurrent streaming, folding, and temporal degrees on the
   iterative benchmarks, whose bases name their ping-pong pair). *)

module Plan = Artemis_ir.Plan
module Estimate = Artemis_ir.Estimate
module Space = Artemis_tune.Space
module E = Artemis_exec
module O = Artemis_codegen.Options
module Lower = Artemis_codegen.Lower
module Suite = Artemis_bench.Suite
module C = Artemis_gpu.Counters

let case name f = Alcotest.test_case name `Quick f
let dev = Artemis_gpu.Device.p100

(* Sampling keeps the pin to a few seconds: the stepping result is
   pinned for every phase-1 candidate, the score and measurement for
   every [priced_stride]-th, and every [variant_stride]-th phase-1
   candidate is expanded into its phase-2 variants, all priced. *)
let priced_stride = 8
let variant_stride = 150

(* Every suite kernel's base plan per scheme hint, shared memory on and
   off, optionally rescaled to [size]. *)
let bases ?size ?(schemes = [ O.Auto ]) () =
  List.concat_map
    (fun (b : Suite.t) ->
      let b = match size with Some n -> Suite.at_size n b | None -> b in
      List.concat_map
        (fun k ->
          List.concat_map
            (fun scheme ->
              List.map
                (fun use_shared ->
                  let p =
                    Lower.lower dev k
                      { O.default with O.block = None; unroll = None; use_shared; scheme }
                  in
                  match b.pingpong with
                  | Some pair when b.iterative ->
                    { p with Plan.temporal = { Plan.no_temporal with Plan.pair = Some pair } }
                  | Some _ | None -> p)
                [ true; false ])
            schemes)
        (Suite.kernels b))
    Suite.all

let phase1 (base : Plan.t) =
  let rank = Plan.rank base in
  let blocks =
    Space.block_candidates ~rank ~scheme:base.scheme
      ~max_threads:base.device.max_threads_per_block
  in
  let unrolls = Space.unroll_candidates ~rank ~scheme:base.scheme ~bound:8 in
  List.concat_map (fun block -> List.map (fun unroll -> { base with block; unroll }) unrolls) blocks

let variants (c : Plan.t) =
  let fan f ps = List.concat_map f ps in
  [ c ]
  |> fan (fun p -> [ p; { p with Plan.prefetch = true } ])
  |> fan (fun (p : Plan.t) ->
         [ p; { p with perspective = Plan.Input_persp }; { p with perspective = Plan.Mixed_persp } ])
  |> fan (fun (p : Plan.t) ->
         let dim = match Plan.stream_dim p with Some s -> s | None -> 0 in
         match Artemis_codegen.Retime.apply p.kernel ~dim_index:dim with
         | Some k' -> [ p; { p with kernel = k'; retime = true } ]
         | None -> [ p ])
  |> fan (fun (p : Plan.t) ->
         match p.scheme with
         | Plan.Serial_stream s ->
           p
           :: List.map
                (fun chunk -> { p with scheme = Plan.Concurrent_stream (s, chunk) })
                (Space.chunk_candidates ~extent:p.kernel.domain.(s))
         | Plan.Tiled | Plan.Concurrent_stream _ -> [ p ])
  |> fan (fun (p : Plan.t) ->
         match Artemis_dsl.Analysis.foldable_groups p.kernel with
         | [] -> [ p ]
         | groups -> [ p; { p with fold = groups } ])
  |> fan (fun (p : Plan.t) ->
         match p.temporal.pair with
         | None -> [ p ]
         | Some _ ->
           p
           :: List.concat_map
                (fun degree ->
                  List.concat_map
                    (fun halo ->
                      List.map
                        (fun tbuf ->
                          { p with Plan.temporal = { p.Plan.temporal with degree; halo; tbuf } })
                        [ Plan.Shared_double; Plan.Register_cycle ])
                    [ Plan.Halo_recompute; Plan.Halo_exchange ])
                (Space.degree_candidates ~max_degree:4))

(* Every candidate in a fixed order, flagged when it is to be priced:
   per base, the phase-1 set, then the variants of every
   [variant_stride]-th phase-1 candidate. *)
let candidates () =
  List.concat_map
    (fun base ->
      let p1 = phase1 base in
      List.mapi (fun i p -> (p, i mod priced_stride = 0)) p1
      @ List.concat
          (List.filteri (fun i _ -> i mod variant_stride = 0) p1
           |> List.map (fun c -> List.map (fun v -> (v, true)) (variants c))))
    (bases ())

(* [p] at its smallest spill-free register step (255 when none is), the
   plan the tuner scores and measures. *)
let stepped (p : Plan.t) =
  { p with max_regs = Option.value (Space.min_nonspill_regs p) ~default:255 }

let render_candidate buf ((p : Plan.t), priced) =
  let h = Printf.bprintf in
  h buf "%s|" (Plan.label p);
  (match Space.min_nonspill_regs p with Some r -> h buf "r%d|" r | None -> h buf "r-|");
  if priced then begin
  let sp = stepped p in
  (match E.Analytic.try_measure sp with
   | None -> h buf "invalid"
   | Some m ->
     let c = m.counters in
     h buf "%h %h|" m.time_s m.tflops;
     List.iter (h buf "%h ")
       [ c.C.useful_flops; c.total_flops; c.dram_bytes; c.tex_bytes; c.shm_bytes;
         c.gld_transactions; c.gst_transactions; c.shm_ld; c.shm_st; c.spill_bytes;
         c.syncs; c.instructions ];
     let r = m.resources in
     h buf "|%d %d %d %d %h %h" r.regs_per_thread r.effective_regs r.spilled_doubles
       r.shared_per_block r.ilp r.occupancy.occupancy)
  end;
  Buffer.add_char buf '\n'

let golden = "c95f8c3d6527c6b8cb8417d10090ce5e"

(* Pre-rank pin: every priced candidate's [Predict.rank] score and
   predicted seconds, apart from the counters above, so a change to the
   ranking model re-pins this digest alone. *)
let render_rank buf ((p : Plan.t), priced) =
  if priced then begin
    let score, t = E.Predict.rank (stepped p) in
    Printf.bprintf buf "%s|%h %h\n" (Plan.label p) score t
  end

let rank_golden = "2418752b5c24023e128eb1fb35f6f037"

(* Per-block pin: every block's counters and the exhaustive launch sum
   of small suite plans (sizes 45 and 48, so last tiles are partial and
   rows misaligned), rendered with %h.  The plans cover tiled and
   streamed bases with shared memory on and off, every
   [block_stride]-th phase-1 candidate, and every [fan_stride]-th
   phase-2 variant (temporal degrees included) of every
   [block_variant_stride]-th.  Valid plans with at most [max_blocks]
   blocks are rendered; the rest only by label. *)
let block_stride = 48
let block_variant_stride = 120
let fan_stride = 7
let max_blocks = 256

let block_plans () =
  let every n l = List.filteri (fun i _ -> i mod n = 0) l in
  List.concat_map
    (fun size ->
      List.concat_map
        (fun base ->
          let p1 = phase1 base in
          every block_stride p1
          @ List.concat_map (fun c -> every fan_stride (variants c)) (every block_variant_stride p1))
        (bases ~size ~schemes:[ O.Auto; O.Force_tiled ] ()))
    [ 45; 48 ]

let render_counters buf (c : C.t) =
  List.iter (Printf.bprintf buf "%h ")
    [ c.useful_flops; c.total_flops; c.dram_bytes; c.tex_bytes; c.shm_bytes;
      c.gld_transactions; c.gst_transactions; c.shm_ld; c.shm_st; c.spill_bytes;
      c.syncs; c.instructions ];
  Buffer.add_char buf '\n'

(* One digest per plan, so the rendering of a large grid never sits in
   memory whole. *)
let render_blocks buf (p : Plan.t) =
  let one = Buffer.create 4096 in
  Printf.bprintf one "%s|" (Plan.label p);
  (match Artemis_ir.Validate.violations p with
   | _ :: _ -> Buffer.add_string one "invalid"
   | [] ->
     let ctx = E.Traffic.make_ctx p in
     let grid = ctx.geom.grid in
     if ctx.geom.total_blocks > max_blocks then Buffer.add_string one "large"
     else begin
       let block = Array.make (Array.length grid) 0 in
       let rec go d =
         if d = Array.length grid then render_counters one (E.Traffic.block_counters ctx block)
         else
           for c = 0 to grid.(d) - 1 do
             block.(d) <- c;
             go (d + 1)
           done
       in
       go 0;
       render_counters one (E.Traffic.total_counters ~exact:true ctx)
     end);
  Buffer.add_string buf (Digest.to_hex (Digest.string (Buffer.contents one)))

let block_golden = "8eccb86874dc9f5dd33ecbedf9a65f5d"

(* Plans for the memo check: every size-45/48 base, tiled and streamed,
   shared memory on and off; each again with a 6-wide innermost block, so
   innermost tiles start off sector boundaries; and, where the base names
   a ping-pong pair, each at temporal degrees 2 and 4 under both halo
   policies. *)
let memo_plans () =
  List.concat_map
    (fun size ->
      List.concat_map
        (fun (base : Plan.t) ->
          let r = Plan.rank base in
          let block = Array.copy base.block in
          block.(r - 1) <- 6;
          List.concat_map
            (fun (p : Plan.t) ->
              match p.temporal.pair with
              | None -> [ p ]
              | Some _ ->
                p
                :: List.concat_map
                     (fun degree ->
                       List.map
                         (fun halo -> { p with Plan.temporal = { p.Plan.temporal with degree; halo } })
                         [ Plan.Halo_recompute; Plan.Halo_exchange ])
                     [ 2; 4 ])
            [ base; { base with block } ])
        (bases ~size ~schemes:[ O.Auto; O.Force_tiled ] ()))
    [ 45; 48 ]

(* [block_counters] folded over every combination of [classes], dimension
   0 outermost, each scaled by the product of its classes' counts. *)
let fold_blocks ctx (classes : (int * int) list array) =
  let r = Array.length classes in
  let block = Array.make r 0 in
  let rec go d mult acc =
    if d = r then C.add acc (C.scale (float_of_int mult) (E.Traffic.block_counters ctx block))
    else
      List.fold_left
        (fun acc (rep, n) ->
          block.(d) <- rep;
          go (d + 1) (mult * n) acc)
        acc classes.(d)
  in
  go 0 1 C.zero

let rendered c =
  let buf = Buffer.create 256 in
  render_counters buf c;
  Buffer.contents buf

(* Staging-memo check: a plan's middle-block counters and class sum,
   priced with the per-kernel staging memo warm from the candidates
   before it, must equal those of the same plan on a copy of its kernel,
   which no memo has seen. *)
let sketch_and_sum (p : Plan.t) =
  match E.Traffic.make_ctx p with
  | ctx ->
    let mid = Array.map (fun n -> n / 2) ctx.geom.grid in
    rendered (E.Traffic.block_counters ctx mid) ^ rendered (E.Traffic.total_counters ctx)
  | exception (Invalid_argument _ | Division_by_zero | Not_found) -> "unpriceable"

let on_cold_kernel (p : Plan.t) =
  { p with kernel = Marshal.from_string (Marshal.to_string p.kernel []) 0 }

(* [c] with each staging field changed on the same kernel value, so a
   memo key that ignored a field would hand some probe a stale entry. *)
let staging_probes (c : Plan.t) =
  [ { c with placement = [] }; { c with retime = not c.retime } ]
  @ (match Artemis_dsl.Analysis.foldable_groups c.kernel with
     | [] -> []
     | groups -> [ { c with fold = groups } ])
  @ List.map
      (fun scheme -> { c with scheme })
      (Plan.Tiled :: List.init (Plan.rank c) (fun d -> Plan.Serial_stream d))

(* The extra benchmarks' base plans, shared memory on and off: gradmag
   has a foldable group, which no suite kernel has. *)
let extras_bases () =
  let module X = Artemis_bench.Extras in
  List.concat_map
    (fun b ->
      List.concat_map
        (fun k ->
          List.map
            (fun use_shared ->
              Lower.lower dev k { O.default with O.block = None; unroll = None; use_shared })
            [ true; false ])
        (X.kernels b))
    X.all

(* Edge pin for per-array read grouping: the class sum and the exact sum
   of plans whose layouts the suite pin rarely reaches, rendered with %h
   and digested.  Suite bases at sizes 45 and 46 have innermost extents
   off the 4-element sector, so rows are misaligned; their shared-memory
   off bases read the 1-D coefficient arrays of the SW4 kernels from
   global memory, arrays of lower rank than the domain.  Generated
   kernels (seed [edge_seed], native size and size 45) add random bodies
   with negative innermost read offsets.  Per base: every
   [edge_stride]-th phase-1 candidate, and every [fan_stride]-th phase-2
   variant of the first.  The exact sum is rendered for launches of at
   most [edge_exact_blocks] blocks. *)
let edge_seed = 1807
let edge_cases = 12
let edge_stride = 40
let edge_exact_blocks = 2048

let program_kernels (prog : Artemis_dsl.Ast.program) =
  let module I = Artemis_dsl.Instantiate in
  let rec collect = function
    | I.Launch k -> [ k ]
    | I.Exchange _ -> []
    | I.Repeat (_, sub) -> List.concat_map collect sub
  in
  List.concat_map collect (I.schedule prog)
  |> List.fold_left
       (fun acc (k : I.kernel) ->
         if List.exists (fun (k' : I.kernel) -> k'.kname = k.kname) acc then acc else acc @ [ k ])
       []

let edge_plans () =
  let resize n (prog : Artemis_dsl.Ast.program) =
    { prog with params = List.map (fun (name, _) -> (name, n)) prog.params }
  in
  let generated =
    List.init edge_cases (fun index -> (Artemis_verify.Gen.generate ~seed:edge_seed ~index).prog)
  in
  let kernels =
    List.concat_map
      (fun n -> List.concat_map (fun (b : Suite.t) -> Suite.kernels (Suite.at_size n b)) Suite.all)
      [ 45; 46 ]
    @ List.concat_map program_kernels (generated @ List.map (resize 45) generated)
  in
  List.concat_map
    (fun k ->
      List.concat_map
        (fun scheme ->
          List.concat_map
            (fun use_shared ->
              let base =
                Lower.lower dev k
                  { O.default with O.block = None; unroll = None; use_shared; scheme }
              in
              let p1 = phase1 base in
              List.filteri (fun i _ -> i mod edge_stride = 0) p1
              @ List.filteri (fun i _ -> i mod fan_stride = 0) (variants (List.hd p1)))
            [ true; false ])
        [ O.Auto; O.Force_tiled ])
    kernels

let render_edge buf (p : Plan.t) =
  Printf.bprintf buf "%s|" (Plan.label p);
  match Artemis_ir.Validate.violations p with
  | _ :: _ -> Buffer.add_string buf "invalid\n"
  | [] ->
    let ctx = E.Traffic.make_ctx p in
    render_counters buf (E.Traffic.total_counters ctx);
    if ctx.geom.total_blocks <= edge_exact_blocks then
      render_counters buf (E.Traffic.total_counters ~exact:true ctx)

let edge_golden = "536ad624c7c32b56734e7db593599690"

(* Reference register search: probe every step in order and keep the
   first spill-free one. *)
let four_probe (p : Plan.t) =
  List.find_opt
    (fun r -> (Estimate.resources { p with max_regs = r }).spilled_doubles = 0)
    Space.reg_steps

let tests =
  ( "pricing",
    [
      case "per-candidate pricing matches the golden digest" (fun () ->
          let cands = candidates () in
          let buf = Buffer.create (1 lsl 20) in
          List.iter (render_candidate buf) cands;
          let d = Digest.to_hex (Digest.string (Buffer.contents buf)) in
          Printf.printf "pricing pin: %d candidates (%d priced), digest %s\n"
            (List.length cands) (List.length (List.filter snd cands)) d;
          Alcotest.(check string) "digest" golden d);
      case "pre-rank scores match the golden digest" (fun () ->
          let buf = Buffer.create (1 lsl 20) in
          List.iter (render_rank buf) (candidates ());
          let d = Digest.to_hex (Digest.string (Buffer.contents buf)) in
          Printf.printf "rank pin: digest %s\n" d;
          Alcotest.(check string) "digest" rank_golden d);
      case "per-block counters match the golden digest" (fun () ->
          let plans = block_plans () in
          let buf = Buffer.create (1 lsl 16) in
          List.iter (render_blocks buf) plans;
          let d = Digest.to_hex (Digest.string (Buffer.contents buf)) in
          Printf.printf "block pin: %d plans, digest %s\n" (List.length plans) d;
          Alcotest.(check string) "digest" block_golden d);
      case "memoized class sums equal per-block folds bit for bit" (fun () ->
          let plans = memo_plans () in
          let checked = ref 0 in
          List.iter
            (fun (p : Plan.t) ->
              if Artemis_ir.Validate.violations p = [] then begin
                incr checked;
                let ctx = E.Traffic.make_ctx p in
                let every = Array.map (fun n -> List.init n (fun i -> (i, 1))) ctx.geom.grid in
                let check what sum folded =
                  if rendered sum <> rendered folded then
                    Alcotest.failf "%s on %s:\n  sum  %s  fold %s" what (Plan.label p)
                      (rendered sum) (rendered folded)
                in
                check "exact sum" (E.Traffic.total_counters ~exact:true ctx) (fold_blocks ctx every);
                check "class sum" (E.Traffic.total_counters ctx)
                  (fold_blocks ctx (E.Traffic.classes ctx))
              end)
            plans;
          Printf.printf "memo check: %d plans, %d valid\n" (List.length plans) !checked);
      case "warm staging memo prices like a cold kernel" (fun () ->
          let priced = ref 0 in
          List.iter
            (fun base ->
              let p1 = phase1 base in
              let every n = List.filteri (fun i _ -> i mod n = 0) in
              let siblings = every priced_stride p1 in
              let warm =
                List.map
                  (fun p -> (p, sketch_and_sum p))
                  (siblings
                   @ staging_probes (List.hd p1)
                   @ List.concat_map variants (every variant_stride p1))
              in
              (* Phase-1 siblings differ only in block and unroll: one
                 staging layout, so one memo entry. *)
              let staged (p : Plan.t) =
                match E.Traffic.make_ctx p with
                | ctx -> Some (p, ctx.stmts)
                | exception (Invalid_argument _ | Division_by_zero | Not_found) -> None
              in
              (match List.filter_map staged siblings with
               | (a, shared) :: rest ->
                 List.iter
                   (fun (b, stmts) ->
                     if stmts != shared then
                       Alcotest.failf "%s and %s do not share a staging entry" (Plan.label a)
                         (Plan.label b))
                   rest
               | [] -> ());
              List.iter
                (fun (p, w) ->
                  incr priced;
                  let c = sketch_and_sum (on_cold_kernel p) in
                  if c <> w then
                    Alcotest.failf "warm vs cold on %s:\n  warm %s  cold %s" (Plan.label p) w c)
                warm)
            (bases () @ extras_bases ());
          Printf.printf "staging memo check: %d plans\n" !priced);
      case "grouped reads at edge layouts match the golden digest" (fun () ->
          let plans = edge_plans () in
          let buf = Buffer.create (1 lsl 20) in
          List.iter (render_edge buf) plans;
          let d = Digest.to_hex (Digest.string (Buffer.contents buf)) in
          Printf.printf "edge pin: %d plans, digest %s\n" (List.length plans) d;
          Alcotest.(check string) "digest" edge_golden d);
      case "closed-form stepping equals the four-probe search" (fun () ->
          List.iter
            (fun (p, _) ->
              if Space.min_nonspill_regs p <> four_probe p then
                Alcotest.failf "stepping differs on %s" (Plan.label p))
            (candidates ()));
    ] )
