(* What one pass records while its items run: output checks and their
   failures, wall time per timed library call, the modeled TFLOPS of the
   plans it produced, and the phase-1 bases the layer replay rebuilds.
   Every item and every timed call runs inside a [perf.*] trace span
   carrying the item name, so a traced pass attributes time to the same
   boundaries the timers measure. *)

module Trace = Artemis.Trace
module Grid = Artemis_exec.Grid

let now_ns () = Monotonic_clock.now ()
let seconds_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9

type t = {
  mutable item : string;
  mutable checks : int;
  mutable failures : string list;  (* newest first *)
  timers : (string, float) Hashtbl.t;  (* layer metric name -> seconds *)
  mutable tflops : float list;  (* plans whose quality the tuner reported *)
  mutable plans : Artemis.Plan.t list;  (* plans to price after the pass *)
  mutable parsed_bytes : int;
  mutable cuda_bytes : int;
  mutable bases : (string * (unit -> Artemis.Plan.t * Artemis.Hierarchical.knobs)) list;
}

let create () =
  {
    item = "";
    checks = 0;
    failures = [];
    timers = Hashtbl.create 16;
    tflops = [];
    plans = [];
    parsed_bytes = 0;
    cuda_bytes = 0;
    bases = [];
  }

let check t ok what =
  t.checks <- t.checks + 1;
  if not ok then t.failures <- Printf.sprintf "%s: %s" t.item what :: t.failures

let item_attr t = [ ("item", Trace.Str t.item) ]

(* Time one public call into a layer, charging [<layer>_s]. *)
let timed t layer f =
  let t0 = now_ns () in
  Fun.protect
    ~finally:(fun () ->
      let s = seconds_since t0 in
      let key = layer ^ "_s" in
      Hashtbl.replace t.timers key
        (s +. Option.value ~default:0.0 (Hashtbl.find_opt t.timers key)))
    (fun () -> Trace.with_span ~attrs:(item_attr t) ("perf." ^ layer) f)

(* Run one item, returning its wall seconds.  An exception is one failed
   check: the item's remaining checks are never attempted. *)
let run_item t name f =
  t.item <- name;
  let t0 = now_ns () in
  (try Trace.with_span ~attrs:(item_attr t) "perf.item" (fun () -> f t)
   with e -> check t false ("exception " ^ Printexc.to_string e));
  seconds_since t0

let bits_equal (a : Grid.t) (b : Grid.t) =
  a.dims = b.dims
  && Array.length a.data = Array.length b.data
  &&
  let rec go i =
    i >= Array.length a.data
    || Int64.equal (Int64.bits_of_float a.data.(i)) (Int64.bits_of_float b.data.(i))
       && go (i + 1)
  in
  go 0

(* One check per expected copyout array: bit-equal to the actual one. *)
let compare_copyouts t ~what ~expected ~actual =
  List.iter
    (fun (name, g) ->
      let ok =
        match List.assoc_opt name actual with
        | Some g' -> bits_equal g g'
        | None -> false
      in
      check t ok (Printf.sprintf "%s copyout %s differs from the reference" what name))
    expected
