(** Code differencing (paper, Section IV, Listings 2-3).

    To decide whether a near-roofline kernel is really bandwidth-bound at
    level M, generate a variant V' whose accesses to M are drastically
    reduced — Listing 3 confines every global array to one block-sized
    footprint — and compare simulated times.  A significant speedup of
    V' convicts M. *)

(** Resolve an [Ambiguous] verdict by differencing at the ambiguous
    level; other verdicts pass through unchanged. *)
val resolve :
  Artemis_exec.Analytic.measurement -> Classify.profile -> Classify.profile
