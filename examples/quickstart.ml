(* Quickstart: the Listing-1 Jacobi end to end.

     dune exec examples/quickstart.exe

   Parses the DSL, checks it, analyses the stencil, generates + tunes a
   GPU plan on the simulated P100, emits the CUDA it denotes, and — the
   part a real GPU run cannot show you — executes the tuned plan on a
   small grid and verifies it against the sequential reference. *)

let jacobi_src =
  {|
parameter L=512, M=512, N=512;
iterator k, j, i;
double in[L,M,N], out[L,M,N], a, b, h2inv;
copyin out, in, h2inv, a, b;
#pragma stream k block (32,16) unroll j=2
stencil jacobi (B, A, h2inv, a, b) {
  double c = b * h2inv;
  B[k][j][i] = a*A[k][j][i] - c*(A[k][j][i+1]
    + A[k][j][i-1] + A[k][j+1][i] + A[k][j-1][i] +
    A[k+1][j][i] + A[k-1][j][i] - A[k][j][i]*6.0);
}
jacobi (out, in, h2inv, a, b);
copyout out;
|}

let () =
  (* 1. Parse and check. *)
  let prog = Artemis.parse_string jacobi_src in
  let kernel = Artemis.first_kernel prog in

  (* 2. What the analyser sees. *)
  Printf.printf "stencil %s: order %d, %d FLOPs/point, %d IO arrays, OI_T %.3f\n"
    kernel.Artemis.Instantiate.kname
    (Artemis.Analysis.stencil_order kernel)
    (Artemis.Analysis.flops_per_point kernel)
    (Artemis.Analysis.io_array_count kernel)
    (Artemis.Analysis.theoretical_oi kernel);

  (* 3. Optimize: profile -> prune -> hierarchical autotuning -> hints. *)
  let r = Artemis.optimize_kernel ~iterative:true kernel in
  Printf.printf "baseline %.3f TFLOPS -> tuned %.3f TFLOPS (%d configs explored)\n"
    r.baseline.tflops r.tuned.tflops r.explored;
  Printf.printf "tuned plan: %s\n" (Artemis.Plan.label r.tuned.plan);
  Printf.printf "bottleneck: %s\n"
    (Artemis.Classify.verdict_to_string r.tuned_profile.verdict);

  (* 4. The CUDA the plan denotes (first lines). *)
  let cuda = Artemis.cuda_of r in
  let first_lines n s =
    String.split_on_char '\n' s
    |> List.filteri (fun i _ -> i < n)
    |> String.concat "\n"
  in
  Printf.printf "\n--- generated CUDA (first 12 lines) ---\n%s\n...\n"
    (first_lines 12 cuda);

  (* 5. Execute the tuned plan on a 16^3 grid and verify. *)
  let small = { prog with Artemis.Ast.params = [ ("L", 16); ("M", 16); ("N", 16) ] } in
  let sched = Artemis.Instantiate.schedule small in
  let scalars = Artemis.Reference.scalars_of_program small in
  let ref_store = Artemis.Reference.store_of_program small in
  Artemis.Reference.run_schedule ref_store ~scalars sched;
  let store = Artemis.Reference.store_of_program small in
  let plan_of k =
    (* reuse the tuned configuration at the test size *)
    { r.tuned.plan with Artemis.Plan.kernel = k }
  in
  let steps = Artemis.Runner.configure ~plan_of sched in
  Artemis.Runner.run_schedule steps store ~scalars;
  let diff =
    Artemis_exec.Grid.max_abs_diff
      (Artemis.Reference.find_array ref_store "out")
      (Artemis.Reference.find_array store "out")
  in
  Printf.printf "\nverification vs sequential reference on 16^3: max |diff| = %g %s\n"
    diff
    (if diff = 0.0 then "(bit-exact)" else "")
