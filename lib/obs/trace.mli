(** Span-based tracing with a Chrome [trace_event]-format exporter.

    Disabled by default: every entry point first checks one boolean, and
    the disabled path allocates no events — instrumentation can stay in
    hot tuner loops.  When enabled, spans and instant events accumulate
    in memory with monotonic microsecond timestamps relative to
    [start ()]; [write] dumps a JSON file that opens directly in
    [chrome://tracing] or Perfetto.

    Domain-safe: the buffer is mutex-guarded, span depth is per domain,
    and each event carries the emitting domain's id — pool workers show
    up as separate [tid] lanes in the Chrome export. *)

type value =
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string

(** One recorded event (exposed for tests and the trace-info CLI). *)
type event = {
  name : string;
  phase : [ `Span | `Instant ];
  ts_us : float;  (** microseconds since [start] *)
  dur_us : float;  (** span duration; 0 for instants *)
  depth : int;  (** per-domain span-stack depth at emission *)
  tid : int;  (** emitting domain's id (the Chrome export's [tid] lane) *)
  attrs : (string * value) list;
}

val enabled : unit -> bool

(** Enable collection, clearing any previous events and re-basing
    timestamps at now. *)
val start : unit -> unit

(** Disable collection.  Recorded events are kept until [start]. *)
val stop : unit -> unit

(** Run [f] inside a named span.  When tracing is disabled this is
    [f ()] with no allocation.  The span closes (and is recorded) even if
    [f] raises.  Span durations also feed the [trace.span_seconds{span}]
    histogram in {!Metrics}. *)
val with_span : ?attrs:(string * value) list -> string -> (unit -> 'a) -> 'a

(** Record a zero-duration structured event. *)
val instant : ?attrs:(string * value) list -> string -> unit

(** Events recorded so far, in emission order (a nested span closes —
    and therefore appears — before its parent). *)
val events : unit -> event list

val event_count : unit -> int

(** Write the Chrome JSON to [path]. *)
val write : string -> unit

(** Inject a clock (seconds, arbitrary epoch) — tests use a fake clock
    for deterministic timestamps.  The default is [Unix.gettimeofday]
    clamped to be monotonically non-decreasing. *)
val set_clock : (unit -> float) -> unit
