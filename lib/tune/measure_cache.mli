(** Content-addressed memoization of {!Artemis_exec.Analytic.measure}.

    A measurement is a pure function of the plan (the device, with the
    traffic model's constants, lives inside the plan).  Entries are keyed
    on a digest of the plan's kernel, computed once per kernel value,
    followed by the canonical [Marshal.No_sharing] bytes of the plan with
    its kernel blanked: structurally equal plans share an entry, and
    two different plans share one only if their kernels' MD5 digests
    collide.  Hits and misses feed the [tuner.cache_hit] /
    [tuner.cache_miss] counters and, when tracing is on, "tuner.cache"
    instant events.

    Domain-safe: the table is mutex-guarded, so pool workers measuring
    candidates concurrently share one cache. *)

(** Content key for a plan; its length does not grow with the kernel.
    Exposed for the cache-correctness tests. *)
val key_of : Artemis_ir.Plan.t -> string

(** Memoized [Analytic.measure] of a validated plan, plus whether the
    cache answered, so callers folding on the main domain can journal
    the outcome in canonical order.  A repeated plan costs a lookup, not
    a re-evaluation. *)
val try_measure_outcome :
  Artemis_ir.Validate.valid -> Artemis_exec.Analytic.measurement * [ `Hit | `Miss ]

(** Also persist entries under this directory (created if missing).
    Stored entries carry their full key and are verified on load, so
    file-name collisions, truncated or unreadable files and entries of
    an older key format degrade to misses that rewrite the entry. *)
val set_dir : string -> unit

(** Run [f] with entries persisted under [d], then restore the previous
    directory (or none). *)
val with_dir : string -> (unit -> 'a) -> 'a

(** Drop all in-memory entries; the on-disk store is untouched. *)
val clear : unit -> unit

