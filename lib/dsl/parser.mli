(** Recursive-descent parser for the stencil DSL (paper Listing 1 plus
    the ARTEMIS extensions: [#assign] resource assignment and the
    [occupancy] pragma clause).  It checks syntax only: {!Frontend.program}
    is the entry point that also runs the semantic check and never raises. *)

(** Parse a full DSL program from source text.  Negated numeric literals
    fold into constants so pretty-printing round-trips.
    @raise Diagnostic.Rejected with the first lexical or syntax error *)
val parse_program : string -> Ast.program

(** Parse a single expression (the expression-level tests).
    @raise Diagnostic.Rejected with the first lexical or syntax error *)
val parse_expr_string : string -> Ast.expr
