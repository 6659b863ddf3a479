(* Plan/transformation sampling for the differential harness. *)

module A = Artemis_dsl.Ast
module I = Artemis_dsl.Instantiate
module Plan = Artemis_ir.Plan
module Validate = Artemis_ir.Validate
module Launch = Artemis_ir.Launch
module Options = Artemis_codegen.Options
module Lower = Artemis_codegen.Lower
module Space = Artemis_tune.Space
module Fusion = Artemis_fuse.Fusion
module Fission = Artemis_fuse.Fission
module Device = Artemis_gpu.Device

type variant =
  | Plain
  | Fused of int list
  | Fissioned of [ `Trivial | `Recompute ]
  | Temporal_blocked of int

type cfg = {
  device : string;  (* [Device.registry] alias *)
  opts : Options.t;
  block_pick : int;
  unroll_pick : int;
  regs_pick : int;
}

type trial = {
  variant : variant;
  cfg : cfg;
}

let variant_label = function
  | Plain -> "plain"
  | Fused segs ->
    Printf.sprintf "fused[%s]" (String.concat ";" (List.map string_of_int segs))
  | Fissioned `Trivial -> "fission-trivial"
  | Fissioned `Recompute -> "fission-recompute"
  | Temporal_blocked b -> Printf.sprintf "temporal[b=%d]" b

let scheme_label (o : Options.t) =
  match o.scheme with
  | Options.Auto -> "auto"
  | Options.Force_tiled -> "tiled"
  | Options.Force_stream _ -> "stream"
  | Options.Force_concurrent (_, c) -> Printf.sprintf "concurrent(%d)" c

let trial_label t =
  Printf.sprintf "%s %s %s%s%s%s %s b#%d u#%d r#%d"
    (variant_label t.variant) (scheme_label t.cfg.opts)
    (if t.cfg.opts.use_shared then "shared" else "global")
    (if t.cfg.opts.prefetch then " pf" else "")
    (if t.cfg.opts.fold then " fold" else "")
    (match t.cfg.opts.perspective with
     | Plan.Output_persp -> " out-persp"
     | Plan.Input_persp -> " in-persp"
     | Plan.Mixed_persp -> " mix-persp")
    t.cfg.device t.cfg.block_pick t.cfg.unroll_pick t.cfg.regs_pick

let default_cfg =
  {
    device = "p100";
    opts = Options.default;
    block_pick = -1;
    unroll_pick = -1;
    regs_pick = -1;
  }

let iterations_of (prog : A.program) =
  List.find_map (function A.Iterate (t, _) -> Some t | A.Run _ -> None) prog.main

let random_cfg rng ~rank =
  let scheme =
    if rank = 1 then Rng.pick rng [ Options.Auto; Options.Force_tiled ]
    else
      Rng.pick rng
        [ Options.Auto; Options.Force_tiled; Options.Force_stream None;
          Options.Force_concurrent (None, Rng.pick rng [ 8; 16 ]) ]
  in
  let opts =
    {
      Options.default with
      Options.scheme;
      use_shared = Rng.bool rng;
      distribution = (if Rng.bool rng then Plan.Blocked else Plan.Cyclic);
      prefetch = Rng.chance rng 0.3;
      perspective =
        Rng.pick rng [ Plan.Output_persp; Plan.Input_persp; Plan.Mixed_persp ];
      fold = Rng.chance rng 0.25;
      (* retime stays false: retimed plans reassociate sums, which is
         numerically sound but not bit-identical — outside this oracle. *)
    }
  in
  (* Non-default devices come from a forked stream: the fork consumes no
     parent draw and the 0.25 chance below is the same draw as before the
     registry existed, so every pinned (seed, index) program and every
     other pick in this trial stays byte-identical — only trials that
     already left the P100 now spread over the whole registry. *)
  let drng = Rng.fork rng in
  let alt_devices = List.filter (fun a -> a <> "p100") (List.map fst Device.registry) in
  {
    device = (if Rng.chance rng 0.25 then Rng.pick drng alt_devices else "p100");
    opts;
    block_pick = Rng.int rng 9973;
    unroll_pick = Rng.int rng 997;
    regs_pick = Rng.int rng (List.length Space.reg_steps);
  }

let random_variant rng (case : Gen.case) =
  if case.iterative && Rng.chance rng 0.5 then begin
    match iterations_of case.prog with
    | Some t when t >= 2 ->
      let x = min t (2 + Rng.int rng 2) in
      let rec segs remaining =
        if remaining = 0 then []
        else if remaining <= x then [ remaining ]
        else x :: segs (remaining - x)
      in
      Fused (segs t)
    | Some _ | None -> Plain
  end
  else if case.iterative && Rng.chance rng 0.5 then begin
    (* Temporal blocking rides the same ping-pong idiom as fusion but is
       pinned bit-exactly (oracle invariant 6, margin 0). *)
    match iterations_of case.prog with
    | Some t when t >= 2 -> Temporal_blocked (min t (2 + Rng.int rng 3))
    | Some _ | None -> Plain
  end
  else if case.multi_output && Rng.chance rng 0.5 then
    Fissioned (if Rng.bool rng then `Trivial else `Recompute)
  else Plain

let trials rng (case : Gen.case) =
  let rank = List.length case.prog.iters in
  let baseline = { variant = Plain; cfg = default_cfg } in
  let sampled =
    List.init 3 (fun _ ->
        { variant = random_variant rng case; cfg = random_cfg rng ~rank })
  in
  baseline :: sampled

(* ------------------------------------------------------------------ *)
(* Applying a trial                                                    *)
(* ------------------------------------------------------------------ *)

let device_of alias =
  match Device.find alias with
  | Some d -> d
  | None -> invalid_arg ("Sampler.device_of: unknown device " ^ alias)

(* Shrink the block until launchable: halve the largest extent above 1,
   at most [tries] times. *)
let rec shrink_valid (p : Plan.t) tries =
  if tries = 0 || Validate.is_valid p then p
  else begin
    let block = Array.copy p.block in
    let d = ref (-1) in
    Array.iteri (fun i e -> if e > 1 && (!d < 0 || e > block.(!d)) then d := i) block;
    if !d < 0 then p
    else begin
      block.(!d) <- max 1 (block.(!d) / 2);
      shrink_valid { p with Plan.block } (tries - 1)
    end
  end

let plan_of cfg (k : I.kernel) =
  let device = device_of cfg.device in
  let p = Lower.lower device k cfg.opts in
  let rank = Plan.rank p in
  let p =
    if cfg.block_pick < 0 then p
    else
      match
        Space.block_candidates ~rank ~scheme:p.scheme
          ~max_threads:device.max_threads_per_block
      with
      | [] -> p
      | cands ->
        { p with Plan.block = List.nth cands (cfg.block_pick mod List.length cands) }
  in
  let p =
    if cfg.unroll_pick < 0 then p
    else
      match Space.unroll_candidates ~rank ~scheme:p.scheme ~bound:4 with
      | [] -> p
      | cands ->
        { p with Plan.unroll = List.nth cands (cfg.unroll_pick mod List.length cands) }
  in
  let p =
    if cfg.regs_pick < 0 then p
    else
      { p with
        Plan.max_regs = List.nth Space.reg_steps (cfg.regs_pick mod List.length Space.reg_steps) }
  in
  let p = shrink_valid p 12 in
  if Validate.is_valid p then Some p else None

let schedule_of_variant (prog : A.program) variant =
  let sched = I.schedule prog in
  match variant with
  | Plain -> Some sched
  | Fused segments -> (
    match List.find_map Fusion.pingpong_of_item sched with
    | Some pp when List.length sched = 1 ->
      Some (Fusion.fuse_pingpong pp ~schedule:segments)
    | Some _ | None -> None)
  | Temporal_blocked degree -> (
    (* The schedule itself is untouched — blocking is applied by the
       oracle through [Runner.temporal_rewrite] after plans attach.  The
       variant applies only when the loop is a blockable ping-pong deep
       enough for at least one blocked launch. *)
    match List.find_map Fusion.pingpong_of_item sched with
    | Some (t, k, out, inp)
      when List.length sched = 1 && t >= degree
           && Fusion.block_legal k ~out ~inp ->
      Some sched
    | Some _ | None -> None)
  | Fissioned which ->
    let items =
      List.concat_map
        (function
          | I.Launch k when List.length (Artemis_ir.Kernel_facts.of_kernel k).final_outputs >= 2 ->
            let parts =
              match which with
              | `Trivial -> Fission.trivial k
              | `Recompute -> Fission.recompute k
            in
            List.map (fun p -> I.Launch p) parts
          | item -> [ item ])
        sched
    in
    Some items
