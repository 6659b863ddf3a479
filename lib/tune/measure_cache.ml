(* Content-addressed memoization of analytic measurements.

   The tuner's phases re-measure the same plans many times over — phase-2
   refinement revisits phase-1 winners, deep tuning re-tunes shared
   prefixes at every fusion depth, and the benchmark harness replays whole
   searches.  A measurement is a pure function of the plan — the device,
   with the constants of the traffic model, is part of it — so the key is
   built from the plan alone.

   The kernel is most of a plan's bytes and is the same value across a
   whole search, so it enters the key as a digest of its canonical
   ([Marshal.No_sharing]) bytes, [Kernel_facts.digest], built once per
   kernel value.  The rest of the key is the canonical bytes of the
   plan with its kernel field blanked.  Structurally equal
   plans therefore share a key whatever their sharing, and two plans
   collide only if their kernels' MD5 digests do.

   The on-disk store (enabled via [set_dir]) names files by the key's
   digest and keeps the key next to the result; a load whose stored key
   differs, or a file that is truncated or unreadable, is a miss. *)

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

(** Content key of a measurement request: the kernel's digest (fixed
    length), then the canonical bytes of the plan with its kernel
    blanked.  The leading tag names the entry format, so entries stored
    in an older format (which held a [measurement option]) are never
    found. *)
let key_of (plan : Plan.t) =
  "m2" ^ (Artemis_ir.Kernel_facts.of_kernel plan.kernel).digest
  ^ Marshal.to_string { plan with kernel = blank_kernel } [ Marshal.No_sharing ]

let lock = Mutex.create ()
let table : (string, Artemis_exec.Analytic.measurement) Hashtbl.t =
  Hashtbl.create 256

let dir : string option ref = ref None

(** Route entries through [d] as well as memory; creates [d] if needed. *)
let set_dir d =
  (try if not (Sys.file_exists d) then Sys.mkdir d 0o755 with Sys_error _ -> ());
  dir := Some d

(** [set_dir d] for the duration of [f], then the previous setting. *)
let with_dir d f =
  let saved = !dir in
  set_dir d;
  Fun.protect ~finally:(fun () -> dir := saved) f

let disk_path key =
  Option.map (fun d -> Filename.concat d (Digest.to_hex (Digest.string key) ^ ".cache")) !dir

(* Disk entries are (key, result) pairs.  A missing or unreadable file
   ([Sys_error]), a truncated one ([End_of_file], or [Failure] from
   [Marshal]), one that is not marshalled data at all ([Failure]) and one
   stored under another key are all just misses; the measurement that
   follows rewrites the entry. *)
let disk_find key =
  match disk_path key with
  | None -> None
  | Some path -> (
    try
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let stored_key, (result : Artemis_exec.Analytic.measurement) =
            Marshal.from_channel ic
          in
          if String.equal stored_key key then Some result else None)
    with Sys_error _ | End_of_file | Failure _ -> None)

let disk_store key result =
  match disk_path key with
  | None -> ()
  | Some path -> (
    try
      let tmp = path ^ ".tmp" in
      let oc = open_out_bin tmp in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> Marshal.to_channel oc (key, result) []);
      Sys.rename tmp path
    with Sys_error _ -> ())

let record outcome =
  (match outcome with
  | `Hit -> Metrics.incr m_hits
  | `Miss -> Metrics.incr m_misses);
  if Trace.enabled () then
    Trace.instant "tuner.cache"
      ~attrs:
        [ ("outcome", Trace.Str (match outcome with `Hit -> "hit" | `Miss -> "miss")) ]

(** Memoized [Analytic.measure] that also reports whether the cache
    answered.  The outcome returns to the caller (rather than being only
    a side-effect metric) so main-domain folds can journal it in
    canonical candidate order — workers must not append to the journal
    themselves. *)
let try_measure_outcome (valid : Artemis_ir.Validate.valid) =
  let key = key_of (valid :> Plan.t) in
  let cached =
    Mutex.protect lock (fun () ->
        match Hashtbl.find_opt table key with
        | Some r -> Some r
        | None -> (
          match disk_find key with
          | Some r ->
            Hashtbl.replace table key r;
            Some r
          | None -> None))
  in
  match cached with
  | Some r ->
    record `Hit;
    (r, `Hit)
  | None ->
    record `Miss;
    let r = Artemis_exec.Analytic.measure valid in
    Mutex.protect lock (fun () ->
        if not (Hashtbl.mem table key) then begin
          Hashtbl.replace table key r;
          disk_store key r
        end);
    (r, `Miss)

(** Drop every in-memory entry (the on-disk store is left alone). *)
let clear () = Mutex.protect lock (fun () -> Hashtbl.reset table)

