(* Affine dataflow engine: box-algebra properties, footprint exactness
   against the executed guards over the fuzz corpus, hyperplane
   legality, the whole-kernel A7xx verdicts, and the pinned
   [artemisc analyze] JSON. *)

module S = Artemis_static.Static
module A = Artemis_dsl.Ast
module I = Artemis_dsl.Instantiate
module E = Artemis_exec
module Gen = Artemis_verify.Gen
module Q = QCheck

let case name f = Alcotest.test_case name `Quick f

let kernels_of prog =
  let rec collect acc = function
    | [] -> acc
    | I.Launch k :: rest -> collect (k :: acc) rest
    | I.Exchange _ :: rest -> collect acc rest
    | I.Repeat (_, sub) :: rest -> collect (collect acc sub) rest
  in
  List.rev (collect [] (I.schedule prog))

let in_box (box : S.box) p =
  let ok = ref true in
  Array.iteri (fun d (lo, hi) -> if p.(d) < lo || p.(d) > hi then ok := false) box;
  !ok

let iter_box (box : S.box) f =
  let rank = Array.length box in
  let p = Array.make (max rank 1) 0 in
  let rec go d =
    if d = rank then f (Array.copy p)
    else
      for c = fst box.(d) to snd box.(d) do
        p.(d) <- c;
        go (d + 1)
      done
  in
  go 0

(* The corpus the oracle also checks dynamically (invariant 5): exercise
   the analyzer directly on the same generated programs. *)
let corpus =
  List.concat_map
    (fun seed -> List.init 8 (fun index -> (Gen.generate ~seed ~index).prog))
    [ 42; 7 ]

(* Per-statement facts mirroring the executed guard: write target plus
   every array read, temps on domain-shaped registers. *)
let stmt_facts (k : I.kernel) =
  let temps = Hashtbl.create 4 in
  let dims_of a =
    if Hashtbl.mem temps a then k.domain
    else match List.assoc_opt a k.arrays with Some d -> d | None -> k.domain
  in
  let identity_idx = List.map (fun it -> { A.iter = Some it; shift = 0 }) k.iters in
  List.mapi
    (fun si st ->
      let target, idx, e =
        match st with
        | A.Decl_temp (t, e) ->
          Hashtbl.replace temps t ();
          (t, identity_idx, e)
        | A.Assign (a, idx, e) | A.Accum (a, idx, e) -> (a, idx, e)
      in
      let accesses =
        (dims_of target, S.spec_of_index ~iters:k.iters idx)
        :: List.map
             (fun (arr, idx') -> (dims_of arr, S.spec_of_index ~iters:k.iters idx'))
             (A.reads_of_expr e)
      in
      (si, st, target, idx, e, accesses, dims_of))
    k.body

let footprint_matches_guard () =
  List.iter
    (fun prog ->
      List.iter
        (fun (k : I.kernel) ->
          let domain_box = Array.map (fun n -> (0, n - 1)) k.domain in
          let grids = Hashtbl.create 8 in
          List.iter
            (fun (si, _st, target, idx, e, accesses, dims_of) ->
              let grid_of a =
                match Hashtbl.find_opt grids a with
                | Some g -> g
                | None ->
                  let g = E.Grid.create (dims_of a) in
                  Hashtbl.replace grids a g;
                  g
              in
              let env =
                {
                  E.Eval.lookup_array = grid_of;
                  lookup_scalar = (fun _ -> 0.0);
                  lookup_temp = (fun _ -> 0.0);
                  iters = k.iters;
                }
              in
              let fp = S.footprint ~region:domain_box ~accesses in
              iter_box domain_box (fun p ->
                  let wg = grid_of target in
                  let dyn =
                    E.Grid.in_bounds wg (E.Eval.access_coords env p idx)
                    && E.Eval.guard env p e
                  in
                  if dyn <> in_box fp p then
                    Alcotest.failf "%s stmt %d: footprint %s vs guard at (%s)"
                      k.I.kname si (S.box_to_string fp)
                      (String.concat ","
                         (List.map string_of_int (Array.to_list p)))))
            (stmt_facts k))
        (kernels_of prog))
    corpus

(* Every nonzero delta vector over {-1,0,1}^rank, as singleton and
   pairwise distance sets: a hyperplane always exists (the base-B
   fallback claim) and passes the legality predicate.  The last set
   needs an outer component above 3, past the small-vector search, so
   only the base-B vector (6, 1) orders it. *)
let hyperplane_legal_exhaustive () =
  let rank = 3 in
  let deltas = ref [] in
  for a = -1 to 1 do
    for b = -1 to 1 do
      for c = -1 to 1 do
        if (a, b, c) <> (0, 0, 0) then deltas := [| a; b; c |] :: !deltas
      done
    done
  done;
  let fallback = [ [| 1; -4; 0 |]; [| 0; 1; 0 |] ] in
  let sets =
    List.map (fun d -> [ d ]) !deltas
    @ List.concat_map
        (fun d1 -> List.map (fun d2 -> [ d1; d2 ]) !deltas)
        !deltas
    @ [ fallback ]
  in
  let set_str ds =
    String.concat " "
      (List.map
         (fun d ->
           "(" ^ String.concat "," (List.map string_of_int (Array.to_list d)) ^ ")")
         ds)
  in
  List.iter
    (fun ds ->
      match S.hyperplane ~rank ds with
      | Some vec ->
        if not (S.schedule_ok ~rank ~vec ds) then
          Alcotest.failf "illegal hyperplane (%s) accepted for {%s}"
            (String.concat "," (List.map string_of_int (Array.to_list vec)))
            (set_str ds)
      | None -> Alcotest.failf "no hyperplane for {%s}" (set_str ds))
    sets;
  Alcotest.(check bool) "base-B fallback" true
    (S.hyperplane ~rank fallback = Some [| 6; 1 |])

(* box_subtract must produce a disjoint cover of a \ b: the piece
   volumes plus the intersection volume reconstitute a, and no piece
   meets b. *)
let prop_box_subtract =
  Q.Test.make ~name:"box subtraction is an exact disjoint cover" ~count:500
    Q.(
      pair
        (list_of_size (Q.Gen.return 3) (pair (int_range (-4) 8) (int_range (-4) 8)))
        (list_of_size (Q.Gen.return 3) (pair (int_range (-4) 8) (int_range (-4) 8))))
    (fun (ps1, ps2) ->
      let mk ps = Array.of_list (List.map (fun (a, b) -> (min a b, max a b)) ps) in
      let a = mk ps1 and b = mk ps2 in
      let pieces = S.box_subtract a b in
      let vol_pieces = List.fold_left (fun acc p -> acc + S.box_volume p) 0 pieces in
      let covers = S.box_volume a = vol_pieces + S.box_volume (S.box_inter a b) in
      let disjoint_from_b =
        List.for_all (fun p -> S.box_volume (S.box_inter p b) = 0) pieces
      in
      let pairwise_disjoint =
        let rec go = function
          | [] -> true
          | p :: rest ->
            List.for_all (fun q -> S.box_volume (S.box_inter p q) = 0) rest
            && go rest
        in
        go pieces
      in
      covers && disjoint_from_b && pairwise_disjoint)

(* subtract_all: pieces left after removing a cover never meet it. *)
let prop_subtract_all =
  Q.Test.make ~name:"subtract_all leaves nothing under the cover" ~count:200
    Q.(
      pair
        (list_of_size (Q.Gen.return 2) (pair (int_range 0 6) (int_range 0 6)))
        (list_of_size (Q.Gen.return 2) (pair (int_range 0 6) (int_range 0 6))))
    (fun (ps1, ps2) ->
      let mk ps = Array.of_list (List.map (fun (a, b) -> (min a b, max a b)) ps) in
      let a = mk ps1 and b = mk ps2 in
      let rest = S.subtract_all [ a ] [ b ] in
      List.for_all (fun p -> S.box_volume (S.box_inter p b) = 0) rest)

(* ------------------------------------------------------------------ *)
(* Whole-kernel verdicts                                               *)
(* ------------------------------------------------------------------ *)

let first_kernel src = List.hd (kernels_of (Artemis.parse_string src))

let never_in_bounds_fires () =
  let k =
    first_kernel
      {|parameter L=8; iterator i; double u[L], v[1]; copyin v;
        stencil s0 (x, y) { x[i] = y[i+1]; } s0 (u, v); copyout u;|}
  in
  match S.never_in_bounds k with
  | [ o ] ->
    Alcotest.(check string) "array" "v" o.S.oob_array;
    Alcotest.(check int) "resolved index" 1 o.S.oob_index;
    Alcotest.(check int) "extent" 1 o.S.oob_extent
  | os -> Alcotest.failf "expected one oob, got %d" (List.length os)

let never_in_bounds_clean () =
  let k =
    first_kernel
      {|parameter L=8; iterator i; double u[L], v[9]; copyin v;
        stencil s0 (x, y) { x[i] = y[i+1]; } s0 (u, v); copyout u;|}
  in
  Alcotest.(check int) "no oob" 0 (List.length (S.never_in_bounds k))

let uninit_reads_fires () =
  let prog =
    Artemis.parse_string
      {|parameter L=8; iterator i; double u[L], v[L], w[L]; copyin v;
        stencil s0 (x, y) { x[i+1] = y[i]; }
        stencil s1 (x, y) { x[i] = y[i]; }
        s0 (u, v); s1 (w, u); copyout w;|}
  in
  match S.uninit_reads prog (I.schedule prog) with
  | [ u ] ->
    Alcotest.(check string) "array" "u" u.S.un_array;
    (* s0's guarded write covers u[1..7]; only cell 0 is uninitialized. *)
    Alcotest.(check bool) "region is the single uncovered cell" true
      (u.S.un_region = [| (0, 0) |])
  | us -> Alcotest.failf "expected one uninit read, got %d" (List.length us)

let uninit_reads_clean () =
  let prog =
    Artemis.parse_string
      {|parameter L=8; iterator i; double u[L], v[L], w[L]; copyin v;
        stencil s0 (x, y) { x[i] = y[i]; }
        stencil s1 (x, y) { x[i] = y[i]; }
        s0 (u, v); s1 (w, u); copyout w;|}
  in
  Alcotest.(check int) "no uninit reads" 0
    (List.length (S.uninit_reads prog (I.schedule prog)))

let band_safe_cases () =
  Alcotest.(check bool) "same-signed ok" true (S.band_safe [ [| 1; 1 |]; [| 1; 0 |] ]);
  Alcotest.(check bool) "mixed-sign vector rejected" false
    (S.band_safe [ [| -1; 1 |] ]);
  Alcotest.(check bool) "all-negative ok" true (S.band_safe [ [| -1; -1 |] ])

let schedule_ok_cases () =
  (* Gauss-Seidel 2-D: distances (1,0) and (0,1); the balanced outer
     hyperplane (1) orders the rows legally. *)
  Alcotest.(check bool) "gs hyperplane legal" true
    (S.schedule_ok ~rank:2 ~vec:[| 1 |] [ [| 1; 0 |]; [| 0; 1 |] ]);
  (* An anti-diagonal dependence (1,-1) with outer part (1) still needs a
     positive outer hyperplane; the zero vector would run it in parallel. *)
  Alcotest.(check bool) "zero vector illegal for outer dependence" false
    (S.schedule_ok ~rank:2 ~vec:[| 0 |] [ [| 1; -1 |] ])

(* MD5 of the [artemisc analyze] JSON on the suite and the two pinned
   fuzz corpora.  Any change to a footprint, dependence verdict,
   hyperplane or finding moves a digest; regenerate them only when an
   analysis result changes on purpose. *)
let analyze_digests () =
  List.iter
    (fun (args, expected) ->
      Alcotest.(check string) (args ^ ": digest") expected
        (Util.artemisc_digest ("analyze " ^ args)))
    [
      ("--suite --plan --json", "214d26eda4c84d96ad78f33e7783038c");
      ("--suite --json", "89a35e9094c9afc83bcb4fed155617a3");
      ("--fuzz-corpus 42 --cases 25 --json", "14c08c3932a489d5784c232a99cb5a47");
      ("--fuzz-corpus 7 --cases 25 --json", "a01f36a90c33dc002ee334d252ed40ad");
    ]

let tests =
  ( "static",
    [
      case "footprint equals the guard-passing point set (corpus)"
        footprint_matches_guard;
      case "chosen hyperplanes always pass the legality test (exhaustive)"
        hyperplane_legal_exhaustive;
      QCheck_alcotest.to_alcotest prop_box_subtract;
      QCheck_alcotest.to_alcotest prop_subtract_all;
      case "never_in_bounds finds the dead access" never_in_bounds_fires;
      case "never_in_bounds clean on a covering extent" never_in_bounds_clean;
      case "uninit_reads finds the uncovered cell" uninit_reads_fires;
      case "uninit_reads clean under a full must-write" uninit_reads_clean;
      case "band_safe classifies distance sets" band_safe_cases;
      case "schedule_ok orders outer dependences" schedule_ok_cases;
      case "analyze JSON digests are pinned" analyze_digests;
    ] )
