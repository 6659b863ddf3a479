(** Pretty-printer for the DSL.  Output is valid concrete syntax — the
    parser round-trips it (property-tested) — and is what the fission
    component writes out as candidate specifications (Section VI-B). *)

val expr_to_string : Ast.expr -> string
val program_to_string : Ast.program -> string
