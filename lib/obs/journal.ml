(* Decision journal.  Mirrors Trace's sink shape — enabled flag, global
   mutex, reversed list buffer — minus timestamps: events must be
   byte-identical at jobs=1 and jobs=N, so their only ordering is the
   sequence number assigned when they reach the global log.  Worker
   domains never reach the global log directly; [capture] parks their
   events in a per-domain stack of buffers and the canonical main-domain
   fold [replay]s them in deterministic order. *)

type entry = { e_kind : string; e_fields : (string * Json.t) list }

let enabled_flag = ref false
let lock = Mutex.create ()
let buffer : entry list ref = ref []
let count = ref 0

(* Stack of capture buffers for the current domain; appends target the
   innermost one.  Per-domain so a pool worker's capture never sees the
   submitter's events. *)
let capture_stack : entry list ref list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let enabled () = !enabled_flag

let start () =
  Mutex.lock lock;
  buffer := [];
  count := 0;
  enabled_flag := true;
  Mutex.unlock lock

let stop () = enabled_flag := false

let append kind fields =
  if !enabled_flag then begin
    let e = { e_kind = kind; e_fields = fields } in
    match !(Domain.DLS.get capture_stack) with
    | buf :: _ -> buf := e :: !buf
    | [] ->
      Mutex.lock lock;
      buffer := e :: !buffer;
      incr count;
      Mutex.unlock lock
  end

let capture f =
  if not !enabled_flag then (f (), [])
  else begin
    let stack = Domain.DLS.get capture_stack in
    let buf = ref [] in
    stack := buf :: !stack;
    let pop () =
      stack := (match !stack with _ :: rest -> rest | [] -> [])
    in
    match f () with
    | v ->
      pop ();
      (v, List.rev !buf)
    | exception e ->
      pop ();
      raise e
  end

let replay entries = List.iter (fun e -> append e.e_kind e.e_fields) entries

let events () =
  Mutex.lock lock;
  let entries = List.rev !buffer in
  Mutex.unlock lock;
  List.mapi
    (fun seq e ->
      Json.Obj (("seq", Json.Int seq) :: ("event", Json.Str e.e_kind) :: e.e_fields))
    entries

let event_count () = !count

let to_jsonl () =
  let b = Buffer.create 4096 in
  List.iter
    (fun ev ->
      Buffer.add_string b (Json.to_string ev);
      Buffer.add_char b '\n')
    (events ());
  Buffer.contents b

let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_jsonl ()))

