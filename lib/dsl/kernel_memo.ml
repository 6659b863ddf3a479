(* Per-kernel memo keyed on physical identity.

   The tuner prices hundreds of candidates per kernel, and every one of
   them is [{ base with block; unroll; ... }]: the kernel field is the
   same heap value throughout a search, and phase 2 shares one retimed
   kernel value among all its retimed variants.  Facts that depend only
   on the kernel are therefore cached against that value with [==],
   which costs a pointer compare instead of the structural hash and
   equality of a whole stencil body.  Two tables use it: the kernel
   facts record ([Artemis_ir.Kernel_facts]) and the traffic model's
   per-kernel statement and staging table ([Artemis_exec.Traffic]).

   Each domain keeps its own short most-recently-used list, so pool
   workers never share mutable state and need no lock.  A tuning search
   alternates between at most two kernel values, its base kernel and
   the retimed one, so two entries cover it; keeping no more means the
   cache retains almost nothing however many kernels a run walks
   through. *)

let capacity = 2

let memo f =
  let key = Domain.DLS.new_key (fun () -> []) in
  fun (k : Instantiate.kernel) ->
    match Domain.DLS.get key with
    | (k', v) :: _ when k' == k -> v
    | entries -> (
      match List.assq_opt k entries with
      | Some v ->
        Domain.DLS.set key ((k, v) :: List.filter (fun (k', _) -> k' != k) entries);
        v
      | None ->
        let v = f k in
        Domain.DLS.set key ((k, v) :: List.filteri (fun i _ -> i < capacity - 1) entries);
        v)
