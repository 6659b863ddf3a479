(* Per-kernel memo keyed on physical identity.

   The tuner prices hundreds of candidates per kernel, and every one of
   them is [{ base with block; unroll; ... }]: the kernel field is the
   same heap value throughout a search.  Facts that depend only on the
   kernel are therefore cached against that value with [==], which costs
   a pointer compare instead of the structural hash and equality of a
   whole stencil body.

   Each domain keeps its own short most-recently-used list, so pool
   workers never share mutable state and need no lock.  Two entries
   cover a search: its base kernel, and in phase 2 the retimed copy
   whose variants are being priced (each retime variant is a fresh
   kernel value, priced in one run before the next appears).  Keeping no
   more means the cache retains almost nothing however many kernels a
   run walks through. *)

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
