(* Plan validation against device and CUDA launch limits.  [validate] is
   the one gate: the tuner, the measurement and the executor see only the
   [valid] plans it returns, so simulation results always correspond to
   launchable kernels. *)

type violation =
  | Too_many_threads of int
  | Bad_block_dim of int * int  (** dimension, extent *)
  | Shared_overflow of int * int  (** needed, available *)
  | Regs_overflow of int * int
  | Zero_occupancy of string
  | Bad_stream_dim of int
  | Bad_unroll of int * int
  | Empty_tile of int
  | Bad_degree of int  (** temporal blocking degree < 1 or missing pair *)

let violation_to_string = function
  | Too_many_threads n -> Printf.sprintf "block has %d threads (limit exceeded)" n
  | Bad_block_dim (d, e) -> Printf.sprintf "block extent %d along dim %d invalid" e d
  | Shared_overflow (need, avail) ->
    Printf.sprintf "shared memory %d B exceeds %d B per block" need avail
  | Regs_overflow (need, avail) ->
    Printf.sprintf "maxrregcount %d exceeds device limit %d" need avail
  | Zero_occupancy why -> Printf.sprintf "zero occupancy (%s)" why
  | Bad_stream_dim d -> Printf.sprintf "stream dimension %d out of range" d
  | Bad_unroll (d, u) -> Printf.sprintf "unroll factor %d along dim %d invalid" u d
  | Empty_tile d -> Printf.sprintf "empty output tile along dim %d" d
  | Bad_degree b ->
    Printf.sprintf "temporal blocking degree %d invalid (needs degree >= 1 and a ping-pong pair when > 1)" b

(** Short constant tag per violation kind — safe as a metric label
    (bounded cardinality, no embedded numbers). *)
let violation_tag = function
  | Too_many_threads _ -> "too-many-threads"
  | Bad_block_dim _ -> "bad-block-dim"
  | Shared_overflow _ -> "shared-overflow"
  | Regs_overflow _ -> "regs-overflow"
  | Zero_occupancy _ -> "zero-occupancy"
  | Bad_stream_dim _ -> "bad-stream-dim"
  | Bad_unroll _ -> "bad-unroll"
  | Empty_tile _ -> "empty-tile"
  | Bad_degree _ -> "bad-degree"

(* Validation volume: how many plans pass through this gate, split by
   outcome. *)
let m_validated_ok =
  Artemis_obs.Metrics.counter "lower.plans_validated" ~labels:[ ("ok", "true") ]

let m_validated_bad =
  Artemis_obs.Metrics.counter "lower.plans_validated" ~labels:[ ("ok", "false") ]

(** All limit violations of [plan]; an empty list means launchable. *)
let violations (p : Plan.t) =
  let d = p.device in
  let r = Plan.rank p in
  let errs = ref [] in
  let add v = errs := v :: !errs in
  let threads = Plan.threads_per_block p in
  if threads <= 0 || threads > d.max_threads_per_block then add (Too_many_threads threads);
  Array.iteri
    (fun dim e ->
      (* CUDA caps block z-extent at 64; x and y at 1024.  Our dimension 0
         (slowest) maps to CUDA z when rank is 3. *)
      let cuda_limit = if r = 3 && dim = 0 then 64 else 1024 in
      if e < 1 || e > cuda_limit then add (Bad_block_dim (dim, e)))
    p.block;
  Array.iteri (fun dim u -> if u < 1 || u > 64 then add (Bad_unroll (dim, u))) p.unroll;
  (match p.scheme with
   | Plan.Tiled -> ()
   | Plan.Serial_stream s | Plan.Concurrent_stream (s, _) ->
     if s < 0 || s >= r then add (Bad_stream_dim s)
     else if p.block.(s) <> 1 then add (Bad_block_dim (s, p.block.(s)));
     (match p.scheme with
      | Plan.Concurrent_stream (_, chunk) when chunk < 1 -> add (Empty_tile s)
      | _ -> ()));
  if p.max_regs > d.max_regs_per_thread then
    add (Regs_overflow (p.max_regs, d.max_regs_per_thread));
  (let tb = p.temporal in
   if tb.degree < 1 || (tb.degree > 1 && tb.pair = None) then add (Bad_degree tb.degree));
  if !errs = [] then begin
    (* Geometry-dependent checks only when the basic shape is sane. *)
    let res = Estimate.resources p in
    if res.shared_per_block > d.shared_per_block then
      add (Shared_overflow (res.shared_per_block, d.shared_per_block));
    if res.occupancy.blocks_per_sm = 0 then
      add
        (Zero_occupancy
           (Artemis_gpu.Occupancy.limiter_to_string res.occupancy.limiter))
  end;
  let vs = List.rev !errs in
  Artemis_obs.Metrics.incr (if vs = [] then m_validated_ok else m_validated_bad);
  (* Per-kind counts: which limit actually filters plans (the tags are
     bounded, so they are safe as metric labels). *)
  List.iter
    (fun v ->
      Artemis_obs.Metrics.incr
        (Artemis_obs.Metrics.counter "validate.violations"
           ~labels:[ ("tag", violation_tag v) ]))
    vs;
  vs

type valid = Plan.t

let validate p = match violations p with [] -> Ok p | vs -> Error vs

let is_valid p = violations p = []

let describe p vs =
  Printf.sprintf "invalid plan %s: %s" (Plan.label p)
    (String.concat "; " (List.map violation_to_string vs))
