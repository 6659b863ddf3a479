(** Deep tuning for iterative stencils with arbitrary time-iteration
    counts (paper, Section VI-A).

    Fused versions (x*1) of increasing time-tile size are generated and
    autotuned while they remain bandwidth-bound (fusion can only help
    bandwidth-bound kernels); the recorded per-version times then feed
    the dynamic program

      opt(T) = min over 1<=x<=min(k,T) of f(x) + opt(T-x)

    which yields a near-optimal fusion schedule for any T. *)

type version = {
  time_tile : int;
  degree : int;
      (** temporal-blocking degree the tuner chose for this tile; one
          launch covers [time_tile * degree] time steps *)
  record : Hierarchical.record;
  profile : Artemis_profile.Classify.profile;
  time_per_sweep : float;  (** launch time / (time tile * degree) *)
}

(** Time steps one launch of a version advances: time_tile * degree. *)
val steps_covered : version -> int

type result = {
  versions : version list;  (** (x*1) for x = 1 .. k, in order *)
  cusp : int;  (** time tile with the best per-sweep throughput *)
  tipping_point : int;  (** first x whose per-sweep time regresses *)
}

(** Generate and tune fused versions of the ping-pong kernel (writing
    [out] from [inp]) until fusion stops paying or [max_tile] (default 5)
    is reached; [plan_of] lowers each fused kernel to its base plan.
    With [max_degree] > 1 (default 1) each version's base plan names the
    ping-pong pair and the tuner picks the temporal-blocking degree b
    jointly with the fusion width, so one launch covers x*b steps.
    [prerank_keep] (default [Hierarchical.default_prerank_keep]) is each
    version's tuner pre-rank cut. *)
val explore :
  ?max_tile:int ->
  ?max_degree:int ->
  ?prerank_keep:float ->
  plan_of:(Artemis_dsl.Instantiate.kernel -> Artemis_ir.Plan.t) ->
  Artemis_dsl.Instantiate.kernel -> out:string -> inp:string -> result

(** Optimal fusion schedule for [t] iterations, composed over steps
    covered per launch (fusion width x temporal degree): segment step
    counts summing to [t] and the predicted total time.
    @raise Invalid_argument on negative [t] or an empty version table. *)
val optimal_schedule : result -> t:int -> int list * float

(** Exhaustive enumeration of compositions — the property-test oracle. *)
val brute_force_schedule : result -> t:int -> int list * float
