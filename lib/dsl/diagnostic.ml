(* Front-end diagnostics: the one failure type of lexing, parsing and
   semantic checking (docs/DSL.md, "Errors"). *)

type phase = Lex | Parse | Semantic

type t = {
  phase : phase;
  line : int option;  (** source line; [None] for semantic violations *)
  message : string;
}

(** [render path d] is [PATH:LINE: lexical error: MSG],
    [PATH:LINE: syntax error: MSG] or [PATH: semantic error: MSG]. *)
let render path d =
  let where = match d.line with Some l -> Printf.sprintf "%s:%d" path l | None -> path in
  let what =
    match d.phase with
    | Lex -> "lexical error"
    | Parse -> "syntax error"
    | Semantic -> "semantic error"
  in
  Printf.sprintf "%s: %s: %s" where what d.message

(** Every diagnostic of a rejected program: how the lexer and parser
    stop at their first error, and what callers with no error path
    raise ([Artemis.parse_string], [Builder.program_checked]). *)
exception Rejected of t list
