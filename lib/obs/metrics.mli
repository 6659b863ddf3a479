(** Process-wide metrics registry: counters, gauges, and fixed-bucket
    histograms, identified by name + label set.  Instrumented code holds
    handles (registered once at module init for hot paths); the registry
    serializes to a JSON snapshot for reports, benchmarks, and tests.

    The registry is always on — updates are a mutex-guarded float store
    on a handle — so enabling tracing never changes which metrics exist.
    All entry points are domain-safe; pool workers may update handles
    concurrently without losing increments. *)

type counter
type gauge
type histogram

(** Register (or look up) a counter.  Same name + labels returns the same
    handle, so registration is idempotent. *)
val counter : ?labels:(string * string) list -> string -> counter

val incr : ?by:float -> counter -> unit
val counter_value : counter -> float

val gauge : ?labels:(string * string) list -> string -> gauge
val set : gauge -> float -> unit

(** Register a histogram with fixed upper-bound buckets (sorted
    ascending; an implicit +Inf bucket is appended).  [buckets] defaults
    to power-of-ten decades from 1e-6 to 1e3 — suitable for span
    durations in seconds. *)
val histogram : ?buckets:float array -> ?labels:(string * string) list -> string -> histogram

val observe : histogram -> float -> unit

(** Snapshot of the whole registry:
    [{"counters": [...], "gauges": [...], "histograms": [...]}], each
    entry carrying name, labels, and value(s); entries sorted by name so
    the snapshot is deterministic. *)
val snapshot : unit -> Json.t

