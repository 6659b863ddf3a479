(** Seeded random stencil-program generator.

    Programs are generated directly against the DSL's semantic rules
    ([Check.check_all] accepts them by construction) and against the block
    executor's supported envelope, so every case is runnable end to end:

    - arrays are full-rank and accessed with every iterator in
      declaration order plus small shifts (the boundary guards this
      induces are part of what the oracle exercises);
    - an array is always [Assign]ed before any [Accum] to it, except
      final outputs which may start with an accumulation chain;
    - divisors are constants or declared scalars (never zero, never a
      temporary), and iterative bodies are linear combinations, so no
      run can produce NaN/infinity that would mask a mismatch;
    - the innermost extent is a multiple of the 32-byte sector width so
      the analytic counter model's block classes are exact;
    - iterative cases keep order 1 and extents large enough that the
      fused-vs-ping-pong comparison has a non-empty deep interior; a
      forked-stream fraction of them runs a deep time loop (6..12
      iterations over smaller domains) so degree-N temporal blocking
      covers several inner steps per launch;
    - self-dependent (Gauss-Seidel/SOR) cases read the written array
      only at componentwise same-sign unit distances, so every executor
      sweep order realizes the same dependence-respecting schedule and
      the wavefront-vs-guarded comparison is exact.  They draw from a
      forked RNG stream: enabling them left all other [(seed, index)]
      programs byte-identical. *)

type case = {
  index : int;  (** position in the fuzz run *)
  prog : Artemis_dsl.Ast.program;
  iterative : bool;  (** main is a ping-pong [iterate] loop *)
  multi_output : bool;  (** some kernel has >= 2 final outputs (fissionable) *)
}

(** Generate case [index] of a run — deterministic in [(seed, index)]. *)
val generate : seed:int -> index:int -> case

(** Largest access shift magnitude in the program (its stencil order
    bound; the oracle derives fusion comparison margins from it). *)
val max_shift : Artemis_dsl.Ast.program -> int
