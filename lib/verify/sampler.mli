(** Random plan/transformation sampler over the tuning space.

    A trial is a reproducible description — scheme hint, candidate-list
    picks, and an optional fusion/fission variant — that can be
    re-applied to a (possibly shrunk) program: picks index into
    [Space] candidate lists modulo their length, so they stay valid as
    the kernel changes under shrinking. *)

type variant =
  | Plain  (** run the program's own schedule *)
  | Fused of int list
      (** replace the ping-pong loop by fused launches with these
          time-tile segments (sum = iteration count) *)
  | Fissioned of [ `Trivial | `Recompute ]
      (** split every multi-output kernel into fission parts *)
  | Temporal_blocked of int
      (** rewrite the ping-pong loop into degree-N blocked launches
          ([Runner.temporal_rewrite]); bit-exact vs the plain schedule *)

type cfg = {
  device : string;
      (** [Artemis_gpu.Device.registry] alias; sampled trials draw
          non-default devices from a forked rng stream so the pinned
          (seed, index) corpus stays byte-identical as the registry
          grows *)
  opts : Artemis_codegen.Options.t;  (** retime is always off: retimed
      plans reassociate sums and are not bit-comparable *)
  block_pick : int;  (** index into [Space.block_candidates]; -1 = default *)
  unroll_pick : int;  (** index into [Space.unroll_candidates]; -1 = default *)
  regs_pick : int;  (** index into [Space.reg_steps]; -1 = default *)
}

type trial = {
  variant : variant;
  cfg : cfg;
}

(** Compact description for logs and repro dumps. *)
val trial_label : trial -> string

(** Default device (P100), default lowering options, no pick overrides —
    the baseline configuration every case is checked under first. *)
val default_cfg : cfg

(** The trials to run for a case: a default-plan baseline plus randomly
    sampled configurations (deterministic in the rng). *)
val trials : Rng.t -> Gen.case -> trial list

(** Lower a kernel under a trial's configuration and validate it,
    shrinking the block like the tuner's validity filter would; [None]
    when no launchable plan exists. *)
val plan_of : cfg -> Artemis_dsl.Instantiate.kernel -> Artemis_ir.Plan.t option

(** Halve the largest block extent until the plan validates (at most the
    given number of tries): the one shrink-until-launchable helper.  The
    oracle re-shrinks temporally blocked plans with it, whose deeper halo
    windows overflow shared memory at the degree-1 block shape; the
    tests, bench/ and perf/ shrink their execution plans with it. *)
val shrink_valid : Artemis_ir.Plan.t -> int -> Artemis_ir.Plan.t

(** The concrete schedule a variant denotes for a program's own
    instantiated schedule: [None] when the variant does not apply (e.g.
    fusion of a non-ping-pong program — possible after shrinking). *)
val schedule_of_variant :
  Artemis_dsl.Instantiate.sched_item list -> variant ->
  Artemis_dsl.Instantiate.sched_item list option
