(* Dependence-graph tests on the Figure-3 structure. *)

open Artemis_dsl
module A = Ast
module Dg = Depgraph
module Suite = Artemis_bench.Suite

let case name f = Alcotest.test_case name `Quick f

let body_of src =
  let p = Artemis.parse_string src in
  (List.hd p.stencils).body

(* Every node's producers precede it in [order]; nodes missing from
   [order] constrain nothing. *)
let is_topological (g : Dg.t) order =
  let pos = Hashtbl.create 16 in
  List.iteri (fun i id -> Hashtbl.replace pos id i) order;
  Array.for_all
    (fun (node : Dg.node) ->
      match Hashtbl.find_opt pos node.id with
      | None -> true
      | Some p ->
        List.for_all
          (fun pred ->
            match Hashtbl.find_opt pos pred with
            | None -> true
            | Some pp -> pp < p)
          g.preds.(node.id))
    g.nodes

let tests =
  ( "depgraph",
    [
      case "flow edges through temporaries" (fun () ->
          let body =
            body_of
              {|parameter L=8; iterator k, j, i;
                double u[L,L,L], o[L,L,L];
                stencil s0 (O, U) {
                  double t = U[k][j][i] * 2.0;
                  O[k][j][i] = t + U[k][j][i+1];
                }
                s0 (o, u);|}
          in
          let g = Dg.build body in
          Alcotest.(check (list int)) "stmt 1 depends on stmt 0" [ 0 ] g.preds.(1));
      case "accumulation depends on its own previous write" (fun () ->
          let body =
            body_of
              {|parameter L=8; iterator k, j, i;
                double u[L,L,L], o[L,L,L];
                stencil s0 (O, U) {
                  O[k][j][i] = U[k][j][i];
                  O[k][j][i] += U[k][j][i+1];
                }
                s0 (o, u);|}
          in
          let g = Dg.build body in
          Alcotest.(check (list int)) "accum after assign" [ 0 ] g.preds.(1));
      case "backward slice includes transitive producers" (fun () ->
          let body =
            body_of
              {|parameter L=8; iterator k, j, i;
                double u[L,L,L], o[L,L,L];
                stencil s0 (O, U) {
                  double t1 = U[k][j][i];
                  double t2 = t1 * 2.0;
                  double t3 = U[k][j][i+1];
                  O[k][j][i] = t2;
                }
                s0 (o, u);|}
          in
          let g = Dg.build body in
          let slice = Dg.backward_slice g 3 in
          let ids = List.map (fun (n : Dg.node) -> n.id) slice in
          Alcotest.(check (list int)) "t3 excluded" [ 0; 1; 3 ] ids);
      case "output nodes of rhs4sgcurv are the three uacc writes" (fun () ->
          let k = List.hd (Suite.kernels (Suite.find "rhs4sgcurv")) in
          let g = Dg.build k.Instantiate.body in
          let outs = Dg.output_nodes g k in
          let names =
            List.map (fun id -> g.nodes.(id).Dg.defines) outs |> List.sort_uniq compare
          in
          Alcotest.(check (list string)) "outputs" [ "uacc0"; "uacc1"; "uacc2" ] names);
      case "body order is topological" (fun () ->
          let k = List.hd (Suite.kernels (Suite.find "rhs4center")) in
          let g = Dg.build k.Instantiate.body in
          let order = List.init (Array.length g.nodes) Fun.id in
          Alcotest.(check bool) "topological" true (is_topological g order));
      case "reversed order is not topological (when edges exist)" (fun () ->
          let body =
            body_of
              {|parameter L=8; iterator k, j, i;
                double u[L,L,L], o[L,L,L];
                stencil s0 (O, U) {
                  double t = U[k][j][i];
                  O[k][j][i] = t;
                }
                s0 (o, u);|}
          in
          let g = Dg.build body in
          Alcotest.(check bool) "not topological" false (is_topological g [ 1; 0 ]));
    ] )
