(* Lexer unit tests. *)

open Artemis_dsl
module L = Lexer

let toks src = List.map fst (L.tokenize src)

(* [src] fails to lex with a [Lex] diagnostic on [line] saying [message]. *)
let lex_error ~line ~message src =
  match L.tokenize src with
  | exception Diagnostic.Rejected [ d ] ->
    Alcotest.(check bool) "lexical phase" true (d.phase = Lex);
    Alcotest.(check (option int)) "line" (Some line) d.line;
    Alcotest.(check string) "message" message d.message
  | _ -> Alcotest.fail "expected a lexical error"

let check_toks name src expected =
  Alcotest.test_case name `Quick (fun () ->
      let got = toks src in
      Alcotest.(check bool)
        (Printf.sprintf "%s tokens" name)
        true
        (got = expected @ [ L.EOF ]))

let case name f = Alcotest.test_case name `Quick f

let tests =
  ( "lexer",
    [
      check_toks "empty" "" [];
      check_toks "idents and keywords" "parameter iterator double stencil foo"
        [ L.KW_PARAMETER; L.KW_ITERATOR; L.KW_DOUBLE; L.KW_STENCIL; L.IDENT "foo" ];
      check_toks "integers" "0 42 512" [ L.INT 0; L.INT 42; L.INT 512 ];
      check_toks "floats" "6.0 0.5 1e-3 2.5E+2"
        [ L.FLOAT 6.0; L.FLOAT 0.5; L.FLOAT 1e-3; L.FLOAT 250.0 ];
      check_toks "operators" "+ - * / = +="
        [ L.PLUS; L.MINUS; L.STAR; L.SLASH; L.EQ; L.PLUSEQ ];
      check_toks "punctuation" "( ) [ ] { } , ;"
        [ L.LPAREN; L.RPAREN; L.LBRACKET; L.RBRACKET; L.LBRACE; L.RBRACE;
          L.COMMA; L.SEMI ];
      check_toks "directives" "#pragma #assign" [ L.KW_PRAGMA; L.KW_ASSIGN ];
      check_toks "access" "A[k][j][i+1]"
        [ L.IDENT "A"; L.LBRACKET; L.IDENT "k"; L.RBRACKET; L.LBRACKET;
          L.IDENT "j"; L.RBRACKET; L.LBRACKET; L.IDENT "i"; L.PLUS; L.INT 1;
          L.RBRACKET ];
      check_toks "line comment" "a // comment here\nb" [ L.IDENT "a"; L.IDENT "b" ];
      check_toks "block comment" "a /* multi\nline */ b" [ L.IDENT "a"; L.IDENT "b" ];
      check_toks "underscore idents" "_tmp my_var2" [ L.IDENT "_tmp"; L.IDENT "my_var2" ];
      case "line numbers advance" (fun () ->
          let t = L.tokenize "a\nb\n\nc" in
          let lines = List.filter_map (fun (tok, l) -> if tok = L.EOF then None else Some l) t in
          Alcotest.(check (list int)) "lines" [ 1; 2; 4 ] lines);
      case "unknown directive rejected" (fun () ->
          lex_error ~line:1 ~message:"unknown directive #define" "#define");
      case "bad character rejected" (fun () ->
          lex_error ~line:1 ~message:"unexpected character '$'" "a $ b");
      case "unterminated comment rejected" (fun () ->
          lex_error ~line:1 ~message:"unterminated comment" "/* never closed");
      case "malformed float literal rejected" (fun () ->
          lex_error ~line:2 ~message:"malformed float literal 1e" "b[i] =\n 1e * a[i];";
          lex_error ~line:1 ~message:"malformed float literal 2.5E+" "2.5E+");
      case "integer literal past max_int rejected" (fun () ->
          Alcotest.(check bool) "max_int lexes" true
            (toks (string_of_int max_int) = [ L.INT max_int; L.EOF ]);
          lex_error ~line:1 ~message:"integer literal 4611686018427387904 out of range"
            "parameter L=4611686018427387904;";
          lex_error ~line:3 ~message:"integer literal 99999999999999999999 out of range"
            "\n\na[i+99999999999999999999]");
      case "keywords are not prefixes" (fun () ->
          Alcotest.(check bool) "stencils is ident" true
            (toks "stencils" = [ L.IDENT "stencils"; L.EOF ]));
    ] )
