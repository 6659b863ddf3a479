(** Append-only decision journal: the provenance log behind
    [artemisc explain].

    Where {!Trace} answers "where did the time go", the journal answers
    "why this plan" — every tuner candidate, lint prune, cache outcome,
    DP tipping-point decision, fuzz verdict, and executor interior/halo
    split lands here as a structured event.  Events carry no timestamps
    and receive their sequence numbers at global-append time, so a run
    journals byte-identically at jobs=1 and jobs=N as long as appends
    happen on the main domain in canonical order.

    Code that runs on pool workers must not append directly (arrival
    order would depend on scheduling).  Instead it wraps its work in
    {!capture}, which diverts appends from the current domain into a
    private buffer, and the main-domain fold {!replay}s each buffer in
    canonical order — the same fan-out/fold discipline the tuner and
    fuzzer already use for metrics. *)

(** An event captured by {!capture}, opaque until {!replay}ed. *)
type entry

val enabled : unit -> bool

(** Clear the log and begin recording. *)
val start : unit -> unit

(** Stop recording; the accumulated events stay readable. *)
val stop : unit -> unit

(** [append kind fields] records one event.  No-op when disabled.  When
    a {!capture} is active on this domain the event goes to its buffer;
    otherwise it is appended to the global log and assigned the next
    sequence number. *)
val append : string -> (string * Json.t) list -> unit

(** [capture f] runs [f] with this domain's appends diverted into a
    fresh buffer and returns [f]'s result paired with the buffered
    entries (in append order).  Captures nest: an inner capture hides
    events from the outer one until replayed.  When the journal is
    disabled the buffer is empty and [f] runs untouched. *)
val capture : (unit -> 'a) -> 'a * entry list

(** Re-append captured entries, preserving their order.  Call from the
    main domain (or an enclosing capture) at the canonical fold point. *)
val replay : entry list -> unit

(** Events as JSON objects in append order; each carries ["seq"] (dense
    from 0) and ["event"] followed by the event's own fields. *)
val events : unit -> Json.t list

val event_count : unit -> int

(** One compact JSON object per line, newline-terminated. *)
val to_jsonl : unit -> string

(** Write {!to_jsonl} to [path]. *)
val write : string -> unit

