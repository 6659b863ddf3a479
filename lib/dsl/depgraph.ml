(* Statement-level dependence graph of a kernel body: the structure kernel
   fission operates on (paper, Section VI-B, Figure 3).  Nodes are body
   statements; edges are flow (RAW) dependences through temporaries and
   arrays. *)

open Ast
module I = Instantiate

type node = {
  id : int;
  stmt : stmt;
  defines : string;  (** temp or array name written *)
  uses : string list;  (** temp and array names read *)
}

type t = {
  nodes : node array;
  preds : int list array;  (** producers of each node's uses *)
  succs : int list array;
}

let names_read stmt =
  fold_stmt_exprs
    (fun acc e ->
      acc
      @ List.map fst (reads_of_expr e)
      @ scalars_of_expr e)
    [] stmt
  |> List.sort_uniq compare

let defined = function
  | Decl_temp (n, _) -> n
  | Assign (a, _, _) | Accum (a, _, _) -> a

(** Build the dependence graph of a statement sequence.  Only flow
    dependences matter for fission: a node depends on the most recent
    earlier definition of each name it uses. *)
let build (body : stmt list) =
  let nodes =
    Array.of_list
      (List.mapi
         (fun id stmt -> { id; stmt; defines = defined stmt; uses = names_read stmt })
         body)
  in
  let n = Array.length nodes in
  let preds = Array.make n [] in
  let succs = Array.make n [] in
  let last_def : (string, int) Hashtbl.t = Hashtbl.create 16 in
  Array.iter
    (fun node ->
      List.iter
        (fun use ->
          match Hashtbl.find_opt last_def use with
          | Some producer ->
            if not (List.mem producer preds.(node.id)) then begin
              preds.(node.id) <- producer :: preds.(node.id);
              succs.(producer) <- node.id :: succs.(producer)
            end
          | None -> ())
        node.uses;
      (* An accumulation also reads its own previous value. *)
      (match node.stmt with
       | Accum (a, _, _) -> (
         match Hashtbl.find_opt last_def a with
         | Some producer when producer <> node.id ->
           if not (List.mem producer preds.(node.id)) then begin
             preds.(node.id) <- producer :: preds.(node.id);
             succs.(producer) <- node.id :: succs.(producer)
           end
         | Some _ | None -> ())
       | Decl_temp _ | Assign _ -> ());
      Hashtbl.replace last_def node.defines node.id)
    nodes;
  { nodes; preds; succs }

(** Transitive producers of node [id], including [id]: the backward slice
    used to build a fission sub-kernel around one output. *)
let backward_slice g id =
  let seen = Array.make (Array.length g.nodes) false in
  let rec visit i =
    if not seen.(i) then begin
      seen.(i) <- true;
      List.iter visit g.preds.(i)
    end
  in
  visit id;
  let slice = ref [] in
  Array.iteri (fun i node -> if seen.(i) then slice := node :: !slice) g.nodes;
  List.rev !slice

(** Ids of nodes writing arrays that are never read by another body
    statement: the final outputs of the DAG.  A statement's own self-read
    (a Gauss-Seidel update) is an input of the definition, not a
    downstream consumer, so it does not disqualify the node. *)
let output_nodes g (k : I.kernel) =
  let arrays = List.map fst k.arrays in
  let readers : (string, int list) Hashtbl.t = Hashtbl.create 16 in
  Array.iter
    (fun node ->
      List.iter
        (fun use ->
          if List.mem use arrays then
            Hashtbl.replace readers use
              (node.id :: Option.value ~default:[] (Hashtbl.find_opt readers use)))
        node.uses)
    g.nodes;
  Array.to_list g.nodes
  |> List.filter_map (fun node ->
         let read_elsewhere =
           match Hashtbl.find_opt readers node.defines with
           | None -> false
           | Some ids -> List.exists (fun id -> id <> node.id) ids
         in
         if List.mem node.defines arrays && not read_elsewhere then Some node.id
         else None)

