(** Semantic checking of parsed DSL programs: name resolution, arity and
    rank consistency, iterator discipline (declared, ordered, unrepeated
    within one access), intrinsic arities, [#assign] targets, call
    sites, and extents (declared, positive, at most 2^53 elements per
    array).  It also enforces what instantiation relies on: every
    stencil writes an array, and no output has more dimensions than the
    program has iterators.  A program with no violations instantiates
    ([Instantiate.schedule] cannot fail on it) and launches at least one
    stencil. *)

(** Every violation, in traversal order, as [Semantic] diagnostics; [[]]
    means well-formed. *)
val check_all : Ast.program -> Diagnostic.t list

(** Math intrinsics accepted in stencil bodies, with arities. *)
val intrinsics : (string * int) list
