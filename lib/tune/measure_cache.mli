(** Content-addressed disk store of {!Artemis_exec.Analytic.measure}
    results, opt-in through [set_dir] ([--cache-dir] on the command
    line).

    A measurement is a pure function of the plan (the device, with the
    traffic model's constants, lives inside the plan).  Entries are keyed
    on a digest of the plan's kernel, computed once per kernel value,
    followed by the canonical [Marshal.No_sharing] bytes of the plan with
    its kernel blanked: structurally equal plans share an entry, and
    two different plans share one only if their kernels' MD5 digests
    collide.  With no directory set there is no cache: every request is
    measured and no key is built.  Hits and misses feed the
    [tuner.cache_hit] / [tuner.cache_miss] counters and, when tracing is
    on, "tuner.cache" instant events.

    Domain- and process-safe: entries are written to a fresh temporary
    file and renamed into place, so pool workers, or several processes
    sharing one directory, may store the same key at once. *)

(** Content key for a plan; its length does not grow with the kernel.
    Exposed for the cache-correctness tests. *)
val key_of : Artemis_ir.Plan.t -> string

(** [Analytic.measure] of a validated plan, plus whether the disk store
    answered, so callers folding on the main domain can journal the
    outcome in canonical order.  With no directory set the outcome is
    always [`Miss]. *)
val try_measure_outcome :
  Artemis_ir.Validate.valid -> Artemis_exec.Analytic.measurement * [ `Hit | `Miss ]

(** Store entries under this directory (created if missing).  Stored
    entries carry their full key and are verified on load, so file-name
    collisions, truncated or unreadable files and entries of an older
    key format degrade to misses that rewrite the entry. *)
val set_dir : string -> unit

(** Run [f] with entries stored under [d], then restore the previous
    directory (or none). *)
val with_dir : string -> (unit -> 'a) -> 'a
