(* Minimal-repro shrinking for oracle findings. *)

module A = Artemis_dsl.Ast
module Metrics = Artemis_obs.Metrics

let m_shrink_steps = Metrics.counter "verify.shrink_steps"

type result = {
  prog : A.program;
  trial : Sampler.trial;
  steps : int;
}

(* A candidate must still be a checked program (and so instantiable)
   before the failure predicate is consulted. *)
let viable (prog : A.program) = Artemis_dsl.Check.check_all prog = []

(* Candidate programs with one statement of one stencil removed. *)
let drop_statement_candidates (prog : A.program) =
  List.concat_map
    (fun (si, (st : A.stencil_def)) ->
      List.mapi
        (fun ti _ ->
          let body' = List.filteri (fun j _ -> j <> ti) st.body in
          let stencils' =
            List.mapi
              (fun j s -> if j = si then { s with A.body = body' } else s)
              prog.stencils
          in
          { prog with A.stencils = stencils' })
        st.body)
    (List.mapi (fun i s -> (i, s)) prog.stencils)

(* Candidate programs with one size parameter roughly halved.  The last
   parameter is the innermost extent: it stays a multiple of 4 (sector
   alignment, a generator invariant) and >= 8. *)
let shrink_param_candidates (prog : A.program) =
  let n = List.length prog.params in
  List.filter_map
    (fun i ->
      let name, v = List.nth prog.params i in
      let v' =
        if i = n - 1 then max 8 (v / 2 / 4 * 4)
        else max 5 (v / 2)
      in
      if v' >= v then None
      else
        Some
          { prog with
            A.params =
              List.map (fun (n', v0) -> if n' = name then (n', v') else (n', v0)) prog.params })
    (List.init n Fun.id)

(* Lower the fusion degree: split the largest segment into 1 + rest. *)
let lower_fusion_candidates (trial : Sampler.trial) =
  match trial.variant with
  | Sampler.Fused segs when List.exists (fun s -> s > 1) segs ->
    let largest = List.fold_left max 0 segs in
    let replaced = ref false in
    let segs' =
      List.concat_map
        (fun s ->
          if s = largest && not !replaced then begin
            replaced := true;
            [ s - 1; 1 ]
          end
          else [ s ])
        segs
    in
    [ { trial with Sampler.variant = Sampler.Fused segs' } ]
  | _ -> []

let minimize ~fails (prog : A.program) (trial : Sampler.trial) =
  let steps = ref 0 in
  let step () =
    incr steps;
    Metrics.incr m_shrink_steps
  in
  let rec fix prog trial budget =
    if budget = 0 then (prog, trial)
    else begin
      let reduced_trial =
        List.find_opt (fun t -> fails prog t) (lower_fusion_candidates trial)
      in
      match reduced_trial with
      | Some t ->
        step ();
        fix prog t (budget - 1)
      | None -> (
        let reduced_prog =
          List.find_opt
            (fun p -> viable p && fails p trial)
            (drop_statement_candidates prog @ shrink_param_candidates prog)
        in
        match reduced_prog with
        | Some p ->
          step ();
          fix p trial (budget - 1)
        | None -> (prog, trial))
    end
  in
  let prog', trial' = fix prog trial 200 in
  { prog = prog'; trial = trial'; steps = !steps }
