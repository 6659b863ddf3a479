(* Content-addressed store of analytic measurements on disk.

   A measurement is a pure function of the plan — the device, with the
   constants of the traffic model, is part of it — so the key is built
   from the plan alone.  Without a directory ([set_dir]) nothing is
   keyed or kept: a measurement costs microseconds, so a repeat is
   measured again.

   The kernel is most of a plan's bytes and is the same value across a
   whole search, so it enters the key as the MD5 of its canonical
   ([Marshal.No_sharing]) bytes, computed once per kernel value
   ([Kernel_memo]).  The rest of the key is the canonical bytes of the
   plan with its kernel field blanked.  Structurally equal plans
   therefore share a key whatever their sharing, and two plans collide
   only if their kernels' MD5 digests do.

   Files are named by the key's digest and keep the key next to the
   result.  A write goes to a fresh temporary file renamed into place,
   so concurrent writers (pool workers, processes sharing the
   directory) never share a file and a reader sees a whole entry. *)

module Plan = Artemis_ir.Plan
module Metrics = Artemis_obs.Metrics
module Trace = Artemis_obs.Trace

let m_hits = Metrics.counter "tuner.cache_hit"
let m_misses = Metrics.counter "tuner.cache_miss"

let blank_kernel : Artemis_dsl.Instantiate.kernel =
  {
    kname = ""; body = []; iters = []; domain = [||]; arrays = []; scalars = []; assign = [];
    pragma = Artemis_dsl.Ast.empty_pragma;
  }

let kernel_digest =
  Artemis_dsl.Kernel_memo.memo (fun k -> Digest.string (Marshal.to_string k [ Marshal.No_sharing ]))

(** Content key of a measurement request: the kernel's digest (fixed
    length), then the canonical bytes of the plan with its kernel
    blanked.  The leading tag names the entry format, so entries stored
    in an older format (which held a [measurement option]) are never
    found. *)
let key_of (plan : Plan.t) =
  "m2" ^ kernel_digest plan.kernel
  ^ Marshal.to_string { plan with kernel = blank_kernel } [ Marshal.No_sharing ]

let dir : string option ref = ref None

(** Store entries under [d]; creates [d] if needed. *)
let set_dir d =
  (try if not (Sys.file_exists d) then Sys.mkdir d 0o755 with Sys_error _ -> ());
  dir := Some d

(** [set_dir d] for the duration of [f], then the previous setting. *)
let with_dir d f =
  let saved = !dir in
  set_dir d;
  Fun.protect ~finally:(fun () -> dir := saved) f

(* Disk entries are (key, result) pairs.  A missing or unreadable file
   ([Sys_error]), a truncated one ([End_of_file], or [Failure] from
   [Marshal]), one that is not marshalled data at all ([Failure]) and one
   stored under another key are all just misses; the measurement that
   follows rewrites the entry. *)
let disk_find path key =
  try
    In_channel.with_open_bin path (fun ic ->
        let stored_key, (result : Artemis_exec.Analytic.measurement) =
          Marshal.from_channel ic
        in
        if String.equal stored_key key then Some result else None)
  with Sys_error _ | End_of_file | Failure _ -> None

(* A store that fails (a full disk, a directory gone) only costs the
   next run a measurement; its temporary file does not outlive it. *)
let disk_store d path key result =
  match Filename.open_temp_file ~mode:[ Open_binary ] ~perms:0o644 ~temp_dir:d "entry" ".tmp" with
  | exception Sys_error _ -> ()
  | tmp, oc -> (
    try
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> Marshal.to_channel oc (key, result) []);
      Sys.rename tmp path
    with Sys_error _ -> ( try Sys.remove tmp with Sys_error _ -> ()))

let record outcome =
  (match outcome with
  | `Hit -> Metrics.incr m_hits
  | `Miss -> Metrics.incr m_misses);
  if Trace.enabled () then
    Trace.instant "tuner.cache"
      ~attrs:
        [ ("outcome", Trace.Str (match outcome with `Hit -> "hit" | `Miss -> "miss")) ]

(** [Analytic.measure] through the disk store, with whether the store
    answered.  The outcome returns to the caller (rather than being only
    a side-effect metric) so main-domain folds can journal it in
    canonical candidate order — workers must not append to the journal
    themselves. *)
let try_measure_outcome (valid : Artemis_ir.Validate.valid) =
  let measure () =
    record `Miss;
    (Artemis_exec.Analytic.measure valid, `Miss)
  in
  match !dir with
  | None -> measure ()
  | Some d -> (
    let key = key_of (valid :> Plan.t) in
    let path = Filename.concat d (Digest.to_hex (Digest.string key) ^ ".cache") in
    match disk_find path key with
    | Some r ->
      record `Hit;
      (r, `Hit)
    | None ->
      let ((r, _) as fresh) = measure () in
      disk_store d path key r;
      fresh)
