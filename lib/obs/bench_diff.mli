(** Bench regression gating: the shared [meta] stamp for every
    [BENCH_*.json] artifact and the comparison engine behind
    [artemisc bench-diff].

    Gating compares only model-deterministic indicators — achieved
    TFLOP/s, speedup ratios, and boolean equality flags — never raw wall
    seconds, which are noise on shared machines.  An indicator is found
    by key name anywhere in the document (the [meta] subtree excluded):

    - numeric ["tflops"], ["dram_traffic_reduction"],
      ["measurements_saved_pct"], or any key starting with ["speedup"]:
      higher is better; a drop past the threshold is a regression;
    - boolean keys (e.g. ["plans_equal"], ["outputs_equal"]): a
      [true -> false] flip is a regression regardless of threshold.

    Indicators present in OLD but missing from NEW also fail the gate
    (renaming a metric should be a conscious baseline regeneration). *)

(** Short git revision of the working tree, or ["unknown"] outside a
    repository. *)
val git_rev : unit -> string

(** The stamp every bench writer embeds under ["meta"]: schema version,
    {!git_rev}, worker count, and the machine model the run assumed. *)
val meta : jobs:int -> machine_model:Json.t -> Json.t

type status =
  | Ok  (** within threshold *)
  | Improved  (** better by more than the threshold — informational *)
  | Regression
  | Missing  (** indicator disappeared from NEW *)

type check = {
  path : string;  (** dotted location of the indicator *)
  old_value : Json.t;
  new_value : Json.t;  (** [Null] when missing *)
  delta_pct : float option;  (** (new - old) / old * 100, numeric only *)
  status : status;
}

type report = {
  threshold_pct : float;
  checks : check list;  (** document order of OLD *)
  regressions : int;  (** [Regression] + [Missing] count *)
}

(** Compare two bench documents.  [threshold_pct] (default 10) is the
    allowed relative drop on higher-is-better indicators. *)
val diff : ?threshold_pct:float -> old_doc:Json.t -> new_doc:Json.t -> unit -> report

(** No regressions and nothing missing. *)
val passed : report -> bool

val to_json : report -> Json.t

(** Human-readable table with a one-line verdict. *)
val render : report -> string
