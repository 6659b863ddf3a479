(* Shared test helpers. *)

module Plan = Artemis_ir.Plan

let dev = Artemis_gpu.Device.p100

(* Run [f] with the point-wise interpreter on or off (split execution). *)
let with_interpreter on f =
  let saved = !Artemis_exec.Eval.use_interpreter in
  Artemis_exec.Eval.use_interpreter := on;
  Fun.protect ~finally:(fun () -> Artemis_exec.Eval.use_interpreter := saved) f

(* Lower and shrink the block shape until the plan is launchable, as the
   tuner's validity filter would. *)
let valid_lower ?(device = dev) k opts =
  let p = Artemis_codegen.Lower.lower device k opts in
  let rec shrink (p : Plan.t) tries =
    if tries = 0 then p
    else if Artemis_ir.Validate.is_valid p then p
    else begin
      let block = Array.copy p.block in
      let d = ref (-1) in
      Array.iteri (fun i e -> if e > 1 && (!d < 0 || e > block.(!d)) then d := i) block;
      if !d < 0 then p
      else begin
        block.(!d) <- max 1 (block.(!d) / 2);
        shrink { p with Plan.block } (tries - 1)
      end
    end
  in
  shrink p 12
