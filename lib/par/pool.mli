(** Work pool on OCaml 5 domains (docs/PERF.md).

    A persistent pool of worker domains drains a hand-rolled task queue
    (Mutex + Condition); the submitting domain helps drain it too, so
    [jobs] counts every participating domain.  At the default jobs = 1,
    {!map} is exactly [List.map] — serial runs pay nothing.

    Determinism contract: {!map} preserves input order regardless of
    completion order, so a caller that folds the results serially
    computes the same answer at any job count. *)

(** Configured job count (total domains used by {!map}, submitter
    included), before the core-count clamp. *)
val jobs : unit -> int

(** Set the job count ([--jobs]); 0 means every core.  A pool of a
    different size is torn down and rebuilt lazily on the next {!map}. *)
val set_jobs : int -> unit

(** Domains {!map} will actually run on: [jobs ()] clamped to the core
    count.  OCaml's stop-the-world minor collections synchronize every
    running domain, so oversubscribing cores only multiplies GC barrier
    time; a [-j 4] request on a single core degrades to the serial path
    (with identical results, per the determinism contract). *)
val parallelism : unit -> int

(** Testing hook: when set, {!parallelism} skips the core-count clamp so
    the queue/worker machinery can be exercised on single-core hosts. *)
val force_parallel : bool ref

(** [map f xs] applies [f] to every element, in parallel when
    [parallelism () > 1], returning results in input order.  A map issued from inside a
    pool task runs serially (nesting would deadlock the queue).  If any
    application raises, the exception of the lowest-index failure is
    re-raised after all tasks settle.  With [label], each task runs
    under a ["pool.task"] trace span carrying the label and index. *)
val map : ?label:string -> ('a -> 'b) -> 'a list -> 'b list

