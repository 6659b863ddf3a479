(* Recursive-descent parser for the DSL of Section II (Listing 1) plus the
   ARTEMIS extensions: [#assign] resource assignment inside stencil bodies
   and the [occupancy] pragma clause. *)

open Ast

type state = {
  mutable toks : (Lexer.token * int) list;
}

let peek st =
  match st.toks with
  | (t, _) :: _ -> t
  | [] -> Lexer.EOF

let line st =
  match st.toks with
  | (_, l) :: _ -> l
  | [] -> 0

let advance st =
  match st.toks with
  | _ :: rest -> st.toks <- rest
  | [] -> ()

let fail st message =
  raise (Diagnostic.Rejected [ { phase = Parse; line = Some (line st); message } ])

let expect st tok =
  if peek st = tok then advance st
  else
    fail st
      (Printf.sprintf "expected %s but found %s" (Lexer.token_to_string tok)
         (Lexer.token_to_string (peek st)))

let ident st =
  match peek st with
  | Lexer.IDENT s -> advance st; s
  | t -> fail st (Printf.sprintf "expected identifier, found %s" (Lexer.token_to_string t))

let int_lit st =
  match peek st with
  | Lexer.INT n -> advance st; n
  | Lexer.MINUS ->
    advance st;
    (match peek st with
     | Lexer.INT n -> advance st; -n
     | t -> fail st (Printf.sprintf "expected integer, found %s" (Lexer.token_to_string t)))
  | t -> fail st (Printf.sprintf "expected integer, found %s" (Lexer.token_to_string t))

let number st =
  match peek st with
  | Lexer.INT n -> advance st; float_of_int n
  | Lexer.FLOAT f -> advance st; f
  | t -> fail st (Printf.sprintf "expected number, found %s" (Lexer.token_to_string t))

let comma_separated st parse_item =
  let rec more acc =
    if peek st = Lexer.COMMA then begin
      advance st;
      more (parse_item st :: acc)
    end
    else List.rev acc
  in
  more [ parse_item st ]

(* ---------------- expressions ---------------- *)

let parse_index st =
  match peek st with
  | Lexer.INT _ | Lexer.MINUS -> { iter = None; shift = int_lit st }
  | Lexer.IDENT it ->
    advance st;
    (match peek st with
     | Lexer.PLUS -> advance st; { iter = Some it; shift = int_lit st }
     | Lexer.MINUS -> advance st; { iter = Some it; shift = -(int_lit st) }
     | _ -> { iter = Some it; shift = 0 })
  | t -> fail st (Printf.sprintf "expected array index, found %s" (Lexer.token_to_string t))

let rec parse_expr st = parse_additive st

and parse_additive st =
  let rec loop lhs =
    match peek st with
    | Lexer.PLUS -> advance st; loop (Bin (Add, lhs, parse_multiplicative st))
    | Lexer.MINUS -> advance st; loop (Bin (Sub, lhs, parse_multiplicative st))
    | _ -> lhs
  in
  loop (parse_multiplicative st)

and parse_multiplicative st =
  let rec loop lhs =
    match peek st with
    | Lexer.STAR -> advance st; loop (Bin (Mul, lhs, parse_unary st))
    | Lexer.SLASH -> advance st; loop (Bin (Div, lhs, parse_unary st))
    | _ -> lhs
  in
  loop (parse_unary st)

and parse_unary st =
  match peek st with
  | Lexer.MINUS -> (
    advance st;
    (* fold negated literals so printing and reparsing agree *)
    match parse_unary st with
    | Const f -> Const (-.f)
    | e -> Neg e)
  | Lexer.PLUS -> advance st; parse_unary st
  | _ -> parse_atom st

and parse_atom st =
  match peek st with
  | Lexer.INT n -> advance st; Const (float_of_int n)
  | Lexer.FLOAT f -> advance st; Const f
  | Lexer.LPAREN ->
    advance st;
    let e = parse_expr st in
    expect st Lexer.RPAREN;
    e
  | Lexer.IDENT name ->
    advance st;
    (match peek st with
     | Lexer.LBRACKET ->
       let rec indices acc =
         if peek st = Lexer.LBRACKET then begin
           advance st;
           let i = parse_index st in
           expect st Lexer.RBRACKET;
           indices (i :: acc)
         end
         else List.rev acc
       in
       Access (name, indices [])
     | Lexer.LPAREN ->
       advance st;
       if peek st = Lexer.RPAREN then begin
         advance st;
         Call (name, [])
       end
       else begin
         let args = comma_separated st parse_expr in
         expect st Lexer.RPAREN;
         Call (name, args)
       end
     | _ -> Scalar_ref name)
  | t -> fail st (Printf.sprintf "expected expression, found %s" (Lexer.token_to_string t))

(* ---------------- statements ---------------- *)

let parse_stmt st =
  match peek st with
  | Lexer.KW_DOUBLE | Lexer.KW_FLOAT ->
    advance st;
    let name = ident st in
    expect st Lexer.EQ;
    let e = parse_expr st in
    expect st Lexer.SEMI;
    Decl_temp (name, e)
  | Lexer.IDENT name ->
    advance st;
    let rec indices acc =
      if peek st = Lexer.LBRACKET then begin
        advance st;
        let i = parse_index st in
        expect st Lexer.RBRACKET;
        indices (i :: acc)
      end
      else List.rev acc
    in
    let idx = indices [] in
    (match peek st with
     | Lexer.EQ ->
       advance st;
       let e = parse_expr st in
       expect st Lexer.SEMI;
       Assign (name, idx, e)
     | Lexer.PLUSEQ ->
       advance st;
       let e = parse_expr st in
       expect st Lexer.SEMI;
       Accum (name, idx, e)
     | t -> fail st (Printf.sprintf "expected '=' or '+=', found %s" (Lexer.token_to_string t)))
  | t -> fail st (Printf.sprintf "expected statement, found %s" (Lexer.token_to_string t))

(* ---------------- pragma ---------------- *)

let parse_pragma st =
  (* Clauses may appear in any order; they are plain identifiers. *)
  let p = ref empty_pragma in
  let rec clauses () =
    match peek st with
    | Lexer.IDENT "stream" ->
      advance st;
      let d = ident st in
      p := { !p with stream_dim = Some d };
      clauses ()
    | Lexer.IDENT "block" ->
      advance st;
      expect st Lexer.LPAREN;
      let dims = comma_separated st (fun st -> int_lit st) in
      expect st Lexer.RPAREN;
      p := { !p with block = Some dims };
      clauses ()
    | Lexer.IDENT "unroll" ->
      advance st;
      let it = ident st in
      expect st Lexer.EQ;
      let f = int_lit st in
      p := { !p with unroll = !p.unroll @ [ (it, f) ] };
      clauses ()
    | Lexer.IDENT "occupancy" ->
      advance st;
      let t = number st in
      p := { !p with occupancy = Some t };
      clauses ()
    | _ -> ()
  in
  clauses ();
  !p

(* ---------------- stencil definitions ---------------- *)

let placement_of_ident st = function
  | "shmem" -> Shmem
  | "gmem" -> Gmem
  | "regs" -> Regs
  | "cmem" -> Cmem
  | other -> fail st (Printf.sprintf "unknown storage class %S in #assign" other)

let parse_assign_directive st =
  (* #assign shmem (u0,u1,u2), gmem (mu,la); *)
  let clause st =
    let pl = placement_of_ident st (ident st) in
    expect st Lexer.LPAREN;
    let names = comma_separated st ident in
    expect st Lexer.RPAREN;
    (pl, names)
  in
  let clauses = comma_separated st clause in
  expect st Lexer.SEMI;
  clauses

let parse_stencil st pragma =
  expect st Lexer.KW_STENCIL;
  let name = ident st in
  expect st Lexer.LPAREN;
  let formals = if peek st = Lexer.RPAREN then [] else comma_separated st ident in
  expect st Lexer.RPAREN;
  expect st Lexer.LBRACE;
  let assign = ref [] in
  let body = ref [] in
  let rec items () =
    match peek st with
    | Lexer.RBRACE -> advance st
    | Lexer.KW_ASSIGN ->
      advance st;
      assign := !assign @ parse_assign_directive st;
      items ()
    | _ ->
      body := parse_stmt st :: !body;
      items ()
  in
  items ();
  { sname = name; formals; body = List.rev !body; assign = !assign; pragma }

(* ---------------- top level ---------------- *)

let parse_decl st =
  let name = ident st in
  if peek st = Lexer.LBRACKET then begin
    advance st;
    let dim st =
      match peek st with
      | Lexer.INT n -> advance st; Dconst n
      | Lexer.IDENT p -> advance st; Dparam p
      | t -> fail st (Printf.sprintf "expected dimension, found %s" (Lexer.token_to_string t))
    in
    let dims = comma_separated st dim in
    expect st Lexer.RBRACKET;
    Array_decl (name, dims)
  end
  else Scalar_decl name

let parse_app_item st =
  match peek st with
  | Lexer.KW_SWAP ->
    advance st;
    expect st Lexer.LPAREN;
    let a = ident st in
    expect st Lexer.COMMA;
    let b = ident st in
    expect st Lexer.RPAREN;
    expect st Lexer.SEMI;
    Swap (a, b)
  | _ ->
    let f = ident st in
    expect st Lexer.LPAREN;
    let args = if peek st = Lexer.RPAREN then [] else comma_separated st ident in
    expect st Lexer.RPAREN;
    expect st Lexer.SEMI;
    Apply (f, args)

(** Parse a full DSL program from source text.
    @raise Diagnostic.Rejected with the first lexical or syntax error *)
let parse_program src =
  let st = { toks = Lexer.tokenize src } in
  let params = ref [] in
  let iters = ref [] in
  let decls = ref [] in
  let copyin = ref [] in
  let stencils = ref [] in
  let main = ref [] in
  let copyout = ref [] in
  let rec top () =
    match peek st with
    | Lexer.EOF -> ()
    | Lexer.KW_PARAMETER ->
      advance st;
      let item st =
        let n = ident st in
        expect st Lexer.EQ;
        let v = int_lit st in
        (n, v)
      in
      params := !params @ comma_separated st item;
      expect st Lexer.SEMI;
      top ()
    | Lexer.KW_ITERATOR ->
      advance st;
      iters := !iters @ comma_separated st ident;
      expect st Lexer.SEMI;
      top ()
    | Lexer.KW_DOUBLE | Lexer.KW_FLOAT ->
      advance st;
      decls := !decls @ comma_separated st parse_decl;
      expect st Lexer.SEMI;
      top ()
    | Lexer.KW_COPYIN ->
      advance st;
      copyin := !copyin @ comma_separated st ident;
      expect st Lexer.SEMI;
      top ()
    | Lexer.KW_COPYOUT ->
      advance st;
      copyout := !copyout @ comma_separated st ident;
      expect st Lexer.SEMI;
      top ()
    | Lexer.KW_PRAGMA ->
      advance st;
      let pragma = parse_pragma st in
      stencils := !stencils @ [ parse_stencil st pragma ];
      top ()
    | Lexer.KW_STENCIL ->
      stencils := !stencils @ [ parse_stencil st empty_pragma ];
      top ()
    | Lexer.KW_ITERATE ->
      advance st;
      let n = int_lit st in
      expect st Lexer.LBRACE;
      let apps = ref [] in
      while peek st <> Lexer.RBRACE do
        apps := parse_app_item st :: !apps
      done;
      advance st;
      main := !main @ [ Iterate (n, List.rev !apps) ];
      top ()
    | Lexer.IDENT _ | Lexer.KW_SWAP ->
      main := !main @ [ Run (parse_app_item st) ];
      top ()
    | t -> fail st (Printf.sprintf "unexpected %s at top level" (Lexer.token_to_string t))
  in
  top ();
  {
    params = !params;
    iters = !iters;
    decls = !decls;
    copyin = !copyin;
    stencils = !stencils;
    main = !main;
    copyout = !copyout;
  }

(** Parse a single expression (used by tests). *)
let parse_expr_string src =
  let st = { toks = Lexer.tokenize src } in
  let e = parse_expr st in
  expect st Lexer.EOF;
  e
