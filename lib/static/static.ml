(* Affine dataflow engine: exact access footprints and dependence facts
   for the ARTEMIS DSL.

   Every array index is [iterator + shift] or a bare constant, so the
   in-bounds set of one access over a box region is itself a box: a
   constant index either always or never lands inside its extent, and an
   [iterator + shift] index clips that iterator's interval by
   [-shift, extent - 1 - shift].  The execution footprint of a statement
   (all accesses in bounds) is the intersection of those boxes — exact,
   not an approximation.  Dependence distances between two accesses of
   the same array are constants whenever both index each dimension by
   the same iterator; the remaining shapes are reported as unknown, the
   same cases the executors refuse to schedule.

   This module is the one source of self-dependence distances,
   wavefront hyperplanes and in-bounds boxes for the executors, the
   traffic model, lint and fusion.  It derives everything from the
   AST/spec level without touching [Artemis_exec]; the fuzz oracle
   checks its footprints against the executed guards. *)

module A = Artemis_dsl.Ast
module I = Artemis_dsl.Instantiate

(* ------------------------------------------------------------------ *)
(* Boxes                                                               *)
(* ------------------------------------------------------------------ *)

type box = (int * int) array

let box_is_empty (b : box) =
  Array.length b = 0 || Array.exists (fun (lo, hi) -> hi < lo) b

let box_volume (b : box) =
  if box_is_empty b then 0
  else Array.fold_left (fun acc (lo, hi) -> acc * (hi - lo + 1)) 1 b

let box_to_string (b : box) =
  if box_is_empty b then "(empty)"
  else
    String.concat ""
      (Array.to_list (Array.map (fun (lo, hi) -> Printf.sprintf "[%d,%d]" lo hi) b))

let box_inter (a : box) (b : box) : box =
  Array.init (Array.length a) (fun d ->
      (max (fst a.(d)) (fst b.(d)), min (snd a.(d)) (snd b.(d))))

(* Disjoint cover of [a \ b] by slab decomposition: peel the part of [a]
   outside [b] one dimension at a time, shrinking the remainder to the
   intersection as we go. *)
let box_subtract (a : box) (b : box) : box list =
  if box_is_empty a then []
  else begin
    let i = box_inter a b in
    if box_is_empty i then [ a ]
    else begin
      let pieces = ref [] in
      let cur = Array.copy a in
      Array.iteri
        (fun d (ilo, ihi) ->
          let alo, ahi = cur.(d) in
          if alo < ilo then begin
            let p = Array.copy cur in
            p.(d) <- (alo, ilo - 1);
            pieces := p :: !pieces
          end;
          if ihi < ahi then begin
            let p = Array.copy cur in
            p.(d) <- (ihi + 1, ahi);
            pieces := p :: !pieces
          end;
          cur.(d) <- (ilo, ihi))
        i;
      !pieces
    end
  end

let subtract_all pieces covers =
  List.fold_left
    (fun pieces c -> List.concat_map (fun p -> box_subtract p c) pieces)
    (List.filter (fun p -> not (box_is_empty p)) pieces)
    covers

(* ------------------------------------------------------------------ *)
(* Access specs and concrete footprints                                *)
(* ------------------------------------------------------------------ *)

type spec = (int * int) array

let spec_of_index ~(iters : string list) (idx : A.index list) : spec =
  let dim_of it =
    let rec find i = function
      | [] -> -1
      | x :: _ when String.equal x it -> i
      | _ :: rest -> find (i + 1) rest
    in
    find 0 iters
  in
  Array.of_list
    (List.map
       (fun (i : A.index) ->
         match i.A.iter with
         | None -> (-1, i.shift)
         | Some it -> (dim_of it, i.shift))
       idx)

let access_feasible ~(region : box) ~(dims : int array) ~(spec : spec) : box =
  let out = Array.copy region in
  let empty () = if Array.length out > 0 then out.(0) <- (0, -1) in
  Array.iteri
    (fun j (dim, shift) ->
      let n = dims.(j) in
      if dim < 0 then begin
        if shift < 0 || shift >= n then empty ()
      end
      else begin
        let lo, hi = out.(dim) in
        out.(dim) <- (max lo (-shift), min hi (n - 1 - shift))
      end)
    spec;
  out

let footprint ~(region : box) ~(accesses : (int array * spec) list) : box =
  List.fold_left
    (fun acc (dims, spec) -> box_inter acc (access_feasible ~region:acc ~dims ~spec))
    (Array.copy region) accesses

let map_to_array ~(exec : box) ~(dims : int array) ~(spec : spec) : box =
  if box_is_empty exec then Array.map (fun _ -> (0, -1)) dims
  else
    Array.mapi
      (fun j _n ->
        let dim, shift = spec.(j) in
        if dim < 0 then (shift, shift)
        else
          let lo, hi = exec.(dim) in
          (lo + shift, hi + shift))
      dims

(* ------------------------------------------------------------------ *)
(* Dependence testing                                                  *)
(* ------------------------------------------------------------------ *)

type dep =
  | No_dep
  | Uniform of int array list
  | Unknown

let pair_delta ~rank ~(wspec : spec) ~(rspec : spec) =
  if Array.length wspec <> Array.length rspec then `Non_uniform
  else begin
    let delta = Array.make (max rank 1) None in
    let verdict = ref `Ok in
    Array.iteri
      (fun d (wdim, wshift) ->
        let rdim, rshift = rspec.(d) in
        if !verdict = `Ok then
          if wdim <> rdim then verdict := `Non_uniform
          else if wdim < 0 then begin
            if wshift <> rshift then verdict := `No_alias
          end
          else begin
            let v = rshift - wshift in
            match delta.(wdim) with
            | None -> delta.(wdim) <- Some v
            | Some v' -> if v <> v' then verdict := `No_alias
          end)
      wspec;
    match !verdict with
    | `Non_uniform -> `Non_uniform
    | `No_alias -> `No_alias
    | `Ok ->
      `Delta
        (Array.init rank (fun d ->
             match delta.(d) with Some v -> v | None -> 0))
  end

let all_zero v = Array.for_all (fun c -> c = 0) v

let write_covers ~rank (wspec : spec) =
  let covered = Array.make (max rank 1) false in
  Array.iter (fun (dim, _) -> if dim >= 0 then covered.(dim) <- true) wspec;
  rank = 0 || Array.for_all Fun.id (Array.sub covered 0 rank)

let distances ~rank ~(wspec : spec) rspecs =
  let rec collect acc = function
    | [] -> Some (List.rev acc)
    | rspec :: rest -> (
      match pair_delta ~rank ~wspec ~rspec with
      | `Non_uniform -> None
      | `No_alias -> collect acc rest
      | `Delta d -> collect (if all_zero d then acc else d :: acc) rest)
  in
  collect [] rspecs

let self_dependences ~(iters : string list) (st : A.stmt) =
  match st with
  | A.Decl_temp _ -> No_dep
  | A.Assign (a, widx, e) | A.Accum (a, widx, e) ->
    let rank = List.length iters in
    let wspec = spec_of_index ~iters widx in
    let self_reads =
      List.filter_map
        (fun (a', idx) ->
          if String.equal a a' then Some (spec_of_index ~iters idx) else None)
        (A.reads_of_expr e)
    in
    if self_reads = [] then No_dep
    else if not (write_covers ~rank wspec) then
      (* Several iterations write each cell; only identity reads are
         order-independent, everything else has no static schedule. *)
      if List.for_all (fun r -> r = wspec) self_reads then No_dep
      else Unknown
    else
      match distances ~rank ~wspec self_reads with
      | None -> Unknown
      | Some [] -> No_dep
      | Some ds -> Uniform ds

let lex_sign (v : int array) =
  let s = ref 0 in
  Array.iter (fun c -> if !s = 0 && c <> 0 then s := compare c 0) v;
  !s

let outer_components ~rank deltas =
  let m = max 0 (rank - 1) in
  List.filter_map
    (fun d ->
      let d' = Array.sub d 0 m in
      if all_zero d' then None else Some d')
    deltas

(* [vec] orders every outer component [d']: sign (vec . d') = lex_sign d'. *)
let orders ~(vec : int array) outer =
  let dot a b =
    let s = ref 0 in
    Array.iteri (fun i x -> s := !s + (x * b.(i))) a;
    !s
  in
  List.for_all (fun d' -> compare (dot vec d') 0 = lex_sign d') outer

let schedule_ok ~rank ~(vec : int array) deltas =
  orders ~vec (outer_components ~rank deltas)

(* Candidates over {0..3}^m are searched smallest-sum first, so balanced
   vectors (widest wavefronts, most row parallelism) win.  With
   [B = 2 + max |component|] the base-B vector [vec_d = B^(m-1-d)] makes
   [vec . d'] take the sign of the first nonzero component of [d'] — its
   lexicographic sign — so it is the guaranteed fallback. *)
let hyperplane ~rank deltas =
  let m = max 0 (rank - 1) in
  let outer = outer_components ~rank deltas in
  if outer = [] then Some (Array.make m 0)
  else begin
    let candidates = ref [] in
    let vec = Array.make m 0 in
    let rec enum d =
      if d = m then candidates := Array.copy vec :: !candidates
      else
        for c = 0 to 3 do
          vec.(d) <- c;
          enum (d + 1)
        done
    in
    enum 0;
    let sum v = Array.fold_left ( + ) 0 v in
    let sorted =
      List.sort
        (fun a b ->
          match compare (sum a) (sum b) with 0 -> compare a b | c -> c)
        !candidates
    in
    match List.find_opt (fun v -> orders ~vec:v outer) sorted with
    | Some v -> Some v
    | None ->
      let base =
        2 + List.fold_left
              (fun acc d' -> Array.fold_left (fun a c -> max a (abs c)) acc d')
              0 outer
      in
      let fallback =
        Array.init m (fun d ->
            let rec pow b n = if n = 0 then 1 else b * pow b (n - 1) in
            pow base (m - 1 - d))
      in
      if orders ~vec:fallback outer then Some fallback else None
  end

let band_safe deltas =
  List.for_all
    (fun d ->
      Array.for_all (fun c -> c <= 0) d || Array.for_all (fun c -> c >= 0) d)
    deltas

(* ------------------------------------------------------------------ *)
(* Whole-kernel verdicts                                               *)
(* ------------------------------------------------------------------ *)

type oob = {
  oob_kernel : string;
  oob_stmt : int;
  oob_array : string;
  oob_dim : int;
  oob_witness : int array;
  oob_index : int;
  oob_extent : int;
}

(* All [(array, index list)] accesses of a statement, write first. *)
let accesses_of_stmt (st : A.stmt) =
  match st with
  | A.Decl_temp (_, e) -> A.reads_of_expr e
  | A.Assign (a, widx, e) | A.Accum (a, widx, e) ->
    (a, widx) :: A.reads_of_expr e

let never_in_bounds (k : I.kernel) =
  if Array.exists (fun n -> n <= 0) k.domain then []
  else begin
    let region = Array.map (fun n -> (0, n - 1)) k.domain in
    let findings = ref [] in
    List.iteri
      (fun si st ->
        List.iter
          (fun (a, idx) ->
            match List.assoc_opt a k.arrays with
            | Some dims when List.length idx = Array.length dims ->
              let spec = spec_of_index ~iters:k.iters idx in
              if box_is_empty (access_feasible ~region ~dims ~spec) then begin
                (* Find the first array dimension whose constraint alone
                   empties the set; the all-zeros point witnesses it. *)
                let bad = ref (-1) in
                Array.iteri
                  (fun j (dim, shift) ->
                    if !bad < 0 then
                      let n = dims.(j) in
                      if dim < 0 then begin
                        if shift < 0 || shift >= n then bad := j
                      end
                      else begin
                        let lo, hi = region.(dim) in
                        if max lo (-shift) > min hi (n - 1 - shift) then
                          bad := j
                      end)
                  spec;
                if !bad >= 0 then begin
                  let j = !bad in
                  let dim, shift = spec.(j) in
                  let witness = Array.map (fun _ -> 0) k.domain in
                  let index = if dim < 0 then shift else witness.(dim) + shift in
                  findings :=
                    {
                      oob_kernel = k.kname;
                      oob_stmt = si;
                      oob_array = a;
                      oob_dim = j;
                      oob_witness = witness;
                      oob_index = index;
                      oob_extent = dims.(j);
                    }
                    :: !findings
                end
              end
            | _ -> ())
          (accesses_of_stmt st))
      k.body;
    List.rev !findings
  end

type uninit = {
  un_kernel : string;
  un_stmt : int;
  un_array : string;
  un_region : box;
}

let uninit_reads (prog : A.program) (sched : I.sched_item list) =
  let full_box name =
    match I.array_dims prog name with
    | Some dims -> Some (Array.map (fun n -> (0, n - 1)) dims)
    | None -> None
  in
  let cover : (string, box list) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (function
      | A.Array_decl (name, _) ->
        let init =
          if List.mem name prog.copyin then
            match full_box name with Some b -> [ b ] | None -> []
          else []
        in
        Hashtbl.replace cover name init
      | A.Scalar_decl _ -> ())
    prog.decls;
  let findings = ref [] in
  let seen = Hashtbl.create 16 in
  let launch (k : I.kernel) =
    let region = Array.map (fun n -> (0, n - 1)) k.domain in
    let written =
      List.filter_map A.written_array k.body |> List.sort_uniq compare
    in
    let stmt_exec st =
      let accesses =
        List.filter_map
          (fun (a, idx) ->
            match List.assoc_opt a k.arrays with
            | Some dims when List.length idx = Array.length dims ->
              Some (dims, spec_of_index ~iters:k.iters idx)
            | _ -> None)
          (accesses_of_stmt st)
      in
      footprint ~region ~accesses
    in
    (* Check reads against the coverage in force before this launch. *)
    List.iteri
      (fun si st ->
        let exec = stmt_exec st in
        if not (box_is_empty exec) then
          List.iter
            (fun (a, idx) ->
              if (not (List.mem a written)) && Hashtbl.mem cover a then
                match List.assoc_opt a k.arrays with
                | Some dims when List.length idx = Array.length dims ->
                  let spec = spec_of_index ~iters:k.iters idx in
                  let rbox = map_to_array ~exec ~dims ~spec in
                  let covers = Hashtbl.find cover a in
                  (match subtract_all [ rbox ] covers with
                  | [] -> ()
                  | piece :: _ ->
                    let key = (k.kname, si, a) in
                    if not (Hashtbl.mem seen key) then begin
                      Hashtbl.replace seen key ();
                      findings :=
                        {
                          un_kernel = k.kname;
                          un_stmt = si;
                          un_array = a;
                          un_region = piece;
                        }
                        :: !findings
                    end)
                | _ -> ())
            (match st with
            | A.Decl_temp (_, e) | A.Assign (_, _, e) | A.Accum (_, _, e) ->
              A.reads_of_expr e))
      k.body;
    (* Then fold this kernel's must-writes into the coverage. *)
    List.iter
      (fun st ->
        match st with
        | A.Assign (a, widx, _) | A.Accum (a, widx, _)
          when Hashtbl.mem cover a -> (
          match List.assoc_opt a k.arrays with
          | Some dims when List.length widx = Array.length dims ->
            let exec = stmt_exec st in
            if not (box_is_empty exec) then begin
              let spec = spec_of_index ~iters:k.iters widx in
              let wbox = map_to_array ~exec ~dims ~spec in
              Hashtbl.replace cover a (wbox :: Hashtbl.find cover a)
            end
          | _ -> ())
        | _ -> ())
      k.body
  in
  let rec walk items =
    List.iter
      (function
        | I.Launch k -> launch k
        | I.Exchange (a, b) ->
          let ca = Hashtbl.find_opt cover a and cb = Hashtbl.find_opt cover b in
          (match cb with
          | Some c -> Hashtbl.replace cover a c
          | None -> Hashtbl.remove cover a);
          (match ca with
          | Some c -> Hashtbl.replace cover b c
          | None -> Hashtbl.remove cover b)
        | I.Repeat (n, sub) ->
          (* Two unrollings reach the ping-pong fixpoint: coverage only
             grows, and Exchange patterns have period two. *)
          for _ = 1 to min n 2 do
            walk sub
          done)
      items
  in
  walk sched;
  List.rev !findings

(* ------------------------------------------------------------------ *)
(* Symbolic footprints                                                 *)
(* ------------------------------------------------------------------ *)

type affine = {
  a_base : int;
  a_terms : (string * int) list;
}

let affine_of_dim = function
  | A.Dparam p -> { a_base = 0; a_terms = [ (p, 1) ] }
  | A.Dconst c -> { a_base = c; a_terms = [] }

let affine_add_const k a = { a with a_base = a.a_base + k }

let affine_to_string a =
  match a.a_terms with
  | [] -> string_of_int a.a_base
  | terms ->
    let body =
      String.concat "+"
        (List.map
           (fun (p, c) -> if c = 1 then p else Printf.sprintf "%d*%s" c p)
           terms)
    in
    if a.a_base = 0 then body
    else if a.a_base > 0 then Printf.sprintf "%s+%d" body a.a_base
    else Printf.sprintf "%s%d" body a.a_base

type sym_bound = {
  sb_lo : int;
  sb_hi : affine list;
}

let sym_bound_to_string b =
  let hi =
    match b.sb_hi with
    | [ one ] -> affine_to_string one
    | many ->
      Printf.sprintf "min(%s)" (String.concat ", " (List.map affine_to_string many))
  in
  Printf.sprintf "[%d, %s]" b.sb_lo hi

type sym_stmt = {
  ss_stencil : string;
  ss_stmt : int;
  ss_write : string;
  ss_iters : string list;
  ss_bounds : sym_bound array;
}

(* Keep one form per distinct term list — the minimum over identical
   terms is decided by the constant part; distinct parameter mixes stay
   side by side under an explicit min. *)
let simplify_min forms =
  let canon a = { a with a_terms = List.sort compare a.a_terms } in
  let forms = List.map canon forms in
  let tbl = Hashtbl.create 4 in
  let order = ref [] in
  List.iter
    (fun f ->
      match Hashtbl.find_opt tbl f.a_terms with
      | Some base -> if f.a_base < base then Hashtbl.replace tbl f.a_terms f.a_base
      | None ->
        Hashtbl.replace tbl f.a_terms f.a_base;
        order := f.a_terms :: !order)
    forms;
  List.rev_map (fun terms -> { a_base = Hashtbl.find tbl terms; a_terms = terms }) !order

let symbolic_footprints (prog : A.program) =
  let decl_dims name =
    List.find_map
      (function
        | A.Array_decl (n, ds) when String.equal n name -> Some ds
        | _ -> None)
      prog.decls
  in
  let applies =
    let of_app = function A.Apply (s, args) -> [ (s, args) ] | A.Swap _ -> [] in
    List.concat_map
      (function
        | A.Run it -> of_app it
        | A.Iterate (_, items) -> List.concat_map of_app items)
      prog.main
    |> List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) []
    |> List.rev
  in
  let out = ref [] in
  List.iter
    (fun (sname, actuals) ->
      match
        List.find_opt (fun (s : A.stencil_def) -> String.equal s.sname sname) prog.stencils
      with
      | Some s when List.length s.formals = List.length actuals ->
        let mapping = List.combine s.formals actuals in
        let body = List.map (A.subst_stmt mapping) s.body in
        let domain_dims =
          I.outputs_of_body body
          |> List.filter_map decl_dims
          |> List.sort (fun a b -> compare (List.length b) (List.length a))
          |> function
          | d :: _ -> Some d
          | [] -> None
        in
        (match domain_dims with
        | None -> ()
        | Some dom ->
          let rank = List.length dom in
          let all = List.length prog.iters in
          if rank <= all then begin
            let iters = List.filteri (fun i _ -> i >= all - rank) prog.iters in
            List.iteri
              (fun si st ->
                let bounds =
                  Array.of_list
                    (List.map
                       (fun d ->
                         { sb_lo = 0; sb_hi = [ affine_add_const (-1) (affine_of_dim d) ] })
                       dom)
                in
                List.iter
                  (fun (a, idx) ->
                    match decl_dims a with
                    | Some dims when List.length idx = List.length dims ->
                      let spec = spec_of_index ~iters idx in
                      List.iteri
                        (fun j dj ->
                          let dim, shift = spec.(j) in
                          if dim >= 0 then begin
                            let b = bounds.(dim) in
                            bounds.(dim) <-
                              {
                                sb_lo = max b.sb_lo (-shift);
                                sb_hi =
                                  affine_add_const (-1 - shift) (affine_of_dim dj)
                                  :: b.sb_hi;
                              }
                          end)
                        dims
                    | _ -> ())
                  (accesses_of_stmt st);
                Array.iteri
                  (fun d b -> bounds.(d) <- { b with sb_hi = simplify_min b.sb_hi })
                  bounds;
                let write =
                  match st with
                  | A.Decl_temp (n, _) -> n
                  | A.Assign (a, _, _) | A.Accum (a, _, _) -> a
                in
                out :=
                  {
                    ss_stencil = sname;
                    ss_stmt = si;
                    ss_write = write;
                    ss_iters = iters;
                    ss_bounds = bounds;
                  }
                  :: !out)
              body
          end)
      | _ -> ())
    applies;
  List.rev !out
