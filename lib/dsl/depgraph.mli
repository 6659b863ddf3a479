(** Statement-level dependence graph of a kernel body — the structure
    kernel fission operates on (paper, Section VI-B, Figure 3).  Nodes
    are body statements; edges are flow (RAW) dependences through
    temporaries and arrays. *)

type node = {
  id : int;  (** position in the body *)
  stmt : Ast.stmt;
  defines : string;  (** temp or array name written *)
  uses : string list;  (** temp and array names read *)
}

type t = {
  nodes : node array;
  preds : int list array;  (** producers of each node's uses *)
  succs : int list array;
}

(** Build the graph of a statement sequence; an accumulation also depends
    on the previous write of its own target. *)
val build : Ast.stmt list -> t

(** Transitive producers of a node, including itself, in body order: the
    slice a fission sub-kernel carries. *)
val backward_slice : t -> int -> node list

(** Nodes writing arrays never read later in the body — the DAG's final
    outputs. *)
val output_nodes : t -> Instantiate.kernel -> int list

