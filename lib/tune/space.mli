(** Autotuning search-space construction with the paper's pruning rules
    (Section V): block extents and unroll factors are powers of two,
    block extents in [4, 256] per dimension (streamed dimension pinned to
    one thread), unroll bounded by 8 (bandwidth-bound) or 4
    (compute-bound), and unroll vectors ordered by increasing product so
    register budgets can be stepped monotonically. *)

val pow2s : int -> int -> int list

(** Candidate thread-block shapes for a scheme (thread total in
    [32, max_threads]). *)
val block_candidates :
  rank:int -> scheme:Artemis_ir.Plan.scheme -> max_threads:int -> int array list

(** Candidate unroll vectors, ordered by increasing product. *)
val unroll_candidates :
  rank:int -> scheme:Artemis_ir.Plan.scheme -> bound:int -> int array list

(** The maxrregcount steps the tuner may set: 32, 64, 128, 255. *)
val reg_steps : int list

(** Smallest register step at which the plan compiles spill-free, if
    any — the "only non-spill configurations are explored" rule.
    Closed form: the estimated spill-free requirement
    ([Estimate.resources]'s [regs_per_thread]) is independent of the
    plan's [max_regs], and a step [r] spills nothing exactly when that
    requirement is at most [r] — so one estimate replaces a probe per
    step, with the same answer. *)
val min_nonspill_regs : Artemis_ir.Plan.t -> int option

(** Concurrent-streaming chunk candidates within the dimension extent. *)
val chunk_candidates : extent:int -> int list

(** Temporal-blocking degrees above the unblocked baseline: powers of two
    in [2, max_degree] (empty when [max_degree <= 1]). *)
val degree_candidates : max_degree:int -> int list

(**/**)

val cartesian : int list array -> int array list
