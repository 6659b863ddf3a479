(* Shared test helpers. *)

module Plan = Artemis_ir.Plan

let dev = Artemis_gpu.Device.p100

(* The CLI next to this test binary in the build tree (bin/ beside
   test/), whatever the working directory. *)
let artemisc_exe =
  Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name)) "bin/artemisc.exe"

(* Run the CLI on [args] (a shell fragment); returns the exit status and
   what it wrote to stdout and stderr. *)
let artemisc args =
  let out = Filename.temp_file "artemisc" ".out" and err = Filename.temp_file "artemisc" ".err" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove out;
      Sys.remove err)
    (fun () ->
      let st =
        Sys.command
          (Printf.sprintf "%s %s > %s 2> %s" (Filename.quote artemisc_exe) args (Filename.quote out)
             (Filename.quote err))
      in
      let read f = In_channel.with_open_bin f In_channel.input_all in
      (st, read out, read err))

(* MD5 of the CLI's stdout on [args]; the run must exit 0. *)
let artemisc_digest args =
  let st, out, _ = artemisc args in
  Alcotest.(check int) (args ^ ": exit status") 0 st;
  Digest.to_hex (Digest.string out)

(* Run [f] at [jobs] pool workers, restoring the pool afterwards.
   [force] (default [jobs > 1]) lifts the core-count clamp, so jobs > 1
   runs real domains even on a single-core machine. *)
let with_pool ~jobs ?(force = jobs > 1) f =
  let module Pool = Artemis_par.Pool in
  let saved_jobs = Pool.jobs () and saved_force = !Pool.force_parallel in
  Pool.set_jobs jobs;
  Pool.force_parallel := force;
  Fun.protect
    ~finally:(fun () ->
      Pool.set_jobs saved_jobs;
      Pool.force_parallel := saved_force)
    f

(* The JSON values of a JSONL document, blank lines skipped. *)
let parse_jsonl s =
  String.split_on_char '\n' s
  |> List.filter (fun line -> String.trim line <> "")
  |> List.map Artemis_obs.Json.parse

(* [sub] occurs in [s]. *)
let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* Lower and shrink the block shape until the plan is launchable, as the
   tuner's validity filter would. *)
let valid_lower ?(device = dev) k opts =
  Artemis_verify.Sampler.shrink_valid (Artemis_codegen.Lower.lower device k opts) 12

(* The [Validate.valid] of a plan the test expects to launch. *)
let valid p =
  match Artemis_ir.Validate.validate p with
  | Ok v -> v
  | Error vs -> Alcotest.fail (Artemis_ir.Validate.describe p vs)
