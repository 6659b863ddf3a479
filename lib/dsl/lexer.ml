(* Hand-written lexer for the DSL.  Produces a token list with line
   information for error reporting; the grammar is small enough that a
   generator would be overkill. *)

type token =
  | IDENT of string
  | INT of int
  | FLOAT of float
  | KW_PARAMETER
  | KW_ITERATOR
  | KW_DOUBLE
  | KW_FLOAT
  | KW_COPYIN
  | KW_COPYOUT
  | KW_STENCIL
  | KW_ITERATE
  | KW_SWAP
  | KW_PRAGMA  (** [#pragma] *)
  | KW_ASSIGN  (** [#assign] *)
  | LPAREN
  | RPAREN
  | LBRACKET
  | RBRACKET
  | LBRACE
  | RBRACE
  | COMMA
  | SEMI
  | EQ
  | PLUSEQ
  | PLUS
  | MINUS
  | STAR
  | SLASH
  | EOF

let token_to_string = function
  | IDENT s -> Printf.sprintf "identifier %S" s
  | INT n -> Printf.sprintf "integer %d" n
  | FLOAT f -> Printf.sprintf "float %g" f
  | KW_PARAMETER -> "'parameter'"
  | KW_ITERATOR -> "'iterator'"
  | KW_DOUBLE -> "'double'"
  | KW_FLOAT -> "'float'"
  | KW_COPYIN -> "'copyin'"
  | KW_COPYOUT -> "'copyout'"
  | KW_STENCIL -> "'stencil'"
  | KW_ITERATE -> "'iterate'"
  | KW_SWAP -> "'swap'"
  | KW_PRAGMA -> "'#pragma'"
  | KW_ASSIGN -> "'#assign'"
  | LPAREN -> "'('"
  | RPAREN -> "')'"
  | LBRACKET -> "'['"
  | RBRACKET -> "']'"
  | LBRACE -> "'{'"
  | RBRACE -> "'}'"
  | COMMA -> "','"
  | SEMI -> "';'"
  | EQ -> "'='"
  | PLUSEQ -> "'+='"
  | PLUS -> "'+'"
  | MINUS -> "'-'"
  | STAR -> "'*'"
  | SLASH -> "'/'"
  | EOF -> "end of input"

let keyword_of_ident = function
  | "parameter" -> Some KW_PARAMETER
  | "iterator" -> Some KW_ITERATOR
  | "double" -> Some KW_DOUBLE
  | "float" -> Some KW_FLOAT
  | "copyin" -> Some KW_COPYIN
  | "copyout" -> Some KW_COPYOUT
  | "stencil" -> Some KW_STENCIL
  | "iterate" -> Some KW_ITERATE
  | "swap" -> Some KW_SWAP
  | _ -> None

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

(** [tokenize src] lexes the whole input and returns [(token, line)] pairs
    terminated by [EOF].  Comments are C-style: [// ...] and [/* ... */].
    @raise Diagnostic.Rejected with the first lexical error: an unexpected
    character, an unknown directive, an unterminated comment, a malformed
    float literal ([1e]) or an integer literal past [max_int] *)
let tokenize src =
  let n = String.length src in
  let line = ref 1 in
  let toks = ref [] in
  let emit t = toks := (t, !line) :: !toks in
  let fail message =
    raise (Diagnostic.Rejected [ { phase = Lex; line = Some !line; message } ])
  in
  let rec skip_block_comment i =
    if i + 1 >= n then fail "unterminated comment"
    else if src.[i] = '\n' then (incr line; skip_block_comment (i + 1))
    else if src.[i] = '*' && src.[i + 1] = '/' then i + 2
    else skip_block_comment (i + 1)
  in
  let rec skip_line_comment i =
    if i >= n then i else if src.[i] = '\n' then i else skip_line_comment (i + 1)
  in
  let lex_number i =
    let j = ref i in
    while !j < n && is_digit src.[!j] do incr j done;
    let is_float = ref false in
    if !j < n && src.[!j] = '.' then begin
      is_float := true;
      incr j;
      while !j < n && is_digit src.[!j] do incr j done
    end;
    if !j < n && (src.[!j] = 'e' || src.[!j] = 'E') then begin
      is_float := true;
      incr j;
      if !j < n && (src.[!j] = '+' || src.[!j] = '-') then incr j;
      while !j < n && is_digit src.[!j] do incr j done
    end;
    let text = String.sub src i (!j - i) in
    (if !is_float then
       match float_of_string_opt text with
       | Some f -> emit (FLOAT f)
       | None -> fail ("malformed float literal " ^ text)
     else
       match int_of_string_opt text with
       | Some n -> emit (INT n)
       | None -> fail (Printf.sprintf "integer literal %s out of range" text));
    !j
  in
  let lex_ident i =
    let j = ref i in
    while !j < n && is_ident_char src.[!j] do incr j done;
    let text = String.sub src i (!j - i) in
    (match keyword_of_ident text with
     | Some kw -> emit kw
     | None -> emit (IDENT text));
    !j
  in
  let lex_hash i =
    (* #pragma or #assign *)
    let j = ref (i + 1) in
    while !j < n && is_ident_char src.[!j] do incr j done;
    let text = String.sub src (i + 1) (!j - i - 1) in
    (match text with
     | "pragma" -> emit KW_PRAGMA
     | "assign" -> emit KW_ASSIGN
     | other -> fail (Printf.sprintf "unknown directive #%s" other));
    !j
  in
  let rec go i =
    if i >= n then ()
    else
      match src.[i] with
      | '\n' -> incr line; go (i + 1)
      | ' ' | '\t' | '\r' -> go (i + 1)
      | '/' when i + 1 < n && src.[i + 1] = '/' -> go (skip_line_comment (i + 2))
      | '/' when i + 1 < n && src.[i + 1] = '*' -> go (skip_block_comment (i + 2))
      | '#' -> go (lex_hash i)
      | '(' -> emit LPAREN; go (i + 1)
      | ')' -> emit RPAREN; go (i + 1)
      | '[' -> emit LBRACKET; go (i + 1)
      | ']' -> emit RBRACKET; go (i + 1)
      | '{' -> emit LBRACE; go (i + 1)
      | '}' -> emit RBRACE; go (i + 1)
      | ',' -> emit COMMA; go (i + 1)
      | ';' -> emit SEMI; go (i + 1)
      | '+' when i + 1 < n && src.[i + 1] = '=' -> emit PLUSEQ; go (i + 2)
      | '+' -> emit PLUS; go (i + 1)
      | '-' -> emit MINUS; go (i + 1)
      | '*' -> emit STAR; go (i + 1)
      | '/' -> emit SLASH; go (i + 1)
      | '=' -> emit EQ; go (i + 1)
      | c when is_digit c -> go (lex_number i)
      | c when is_ident_start c -> go (lex_ident i)
      | c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  go 0;
  emit EOF;
  List.rev !toks
