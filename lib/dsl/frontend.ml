(* The front end: DSL source text to a checked program. *)

(** Lex, parse and [Check.check_all] [src].  [Ok] holds a program that
    instantiates; [Error] holds the first lexical or syntax error, or
    every semantic violation.  Never raises. *)
let program src =
  match Parser.parse_program src with
  | exception Diagnostic.Rejected ds -> Error ds
  | prog -> ( match Check.check_all prog with [] -> Ok prog | ds -> Error ds)
