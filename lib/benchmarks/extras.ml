(* Extras: 2-D stencils beyond Table I.

   The paper's introduction motivates complex stencils with image
   processing pipelines (Halide's domain); the framework is rank-generic,
   so this secondary suite exercises the 2-D paths at benchmark scale:
   a classic iterative heat solver, a two-stage blur-sharpen pipeline
   (producer-consumer DAG), and a gradient-magnitude kernel with a
   foldable pointwise product.  The `extras` bench experiment compares
   tiling schemes on them. *)

module A = Artemis_dsl.Ast
module B = Artemis_dsl.Builder
module I = Artemis_dsl.Instantiate
module An = Artemis_dsl.Analysis

type t = {
  name : string;
  prog : A.program;
  iterative : bool;
  pingpong : (string * string) option;
}

let params n = [ ("M", n); ("N", n) ]
let dims2 = [ "M"; "N" ]

let a2 name (dj, di) =
  A.Access
    (name, [ { A.iter = Some "j"; shift = dj }; { A.iter = Some "i"; shift = di } ])

let assign2 name e =
  A.Assign
    (name, [ { A.iter = Some "j"; shift = 0 }; { A.iter = Some "i"; shift = 0 } ], e)

(* heat2d: 5-point iterative diffusion, the canonical 2-D time-tiled
   benchmark of the Overtile/Forma lineage. *)
let heat2d =
  let body =
    [ assign2 "B"
        B.(
          a2 "A" (0, 0)
          + (s "alpha"
             * (a2 "A" (0, 1) + a2 "A" (0, -1) + a2 "A" (1, 0) + a2 "A" (-1, 0)
                - (c 4.0 * a2 "A" (0, 0))))) ]
  in
  let stencil =
    B.stencil "heat2d"
      ~pragma:{ A.empty_pragma with stream_dim = Some "j"; block = Some [ 64 ] }
      [ "B"; "A"; "alpha" ] body
  in
  let prog =
    B.program_checked ~params:(params 2048) ~iters:[ "j"; "i" ]
      ~decls:[ B.array "u" dims2; B.array "v" dims2; B.scalar "alpha" ]
      ~stencils:[ stencil ]
      ~main:
        [ A.Iterate (16, [ A.Apply ("heat2d", [ "v"; "u"; "alpha" ]);
                           A.Swap ("v", "u") ]) ]
      ~copyout:[ "v" ] ()
  in
  { name = "heat2d"; prog; iterative = true; pingpong = Some ("v", "u") }

(* blur-sharpen: a two-stage pipeline; the blurred field is consumed at
   offsets by the sharpening stage — the fusion pattern of Halide's
   introductory examples. *)
let blur_sharpen =
  let blur =
    assign2 "G"
      B.(
        c 0.2
        * (a2 "U" (0, 0) + a2 "U" (0, 1) + a2 "U" (0, -1) + a2 "U" (1, 0)
           + a2 "U" (-1, 0)))
  in
  let sharpen =
    assign2 "O"
      B.(
        a2 "U" (0, 0)
        + (s "amount"
           * (a2 "U" (0, 0)
              - (c 0.25
                 * (a2 "G" (0, 1) + a2 "G" (0, -1) + a2 "G" (1, 0) + a2 "G" (-1, 0))))))
  in
  let stencil =
    B.stencil "blur_sharpen"
      ~pragma:{ A.empty_pragma with stream_dim = Some "j"; block = Some [ 64 ] }
      [ "O"; "G"; "U"; "amount" ] [ blur; sharpen ]
  in
  let prog =
    B.program_checked ~params:(params 2048) ~iters:[ "j"; "i" ]
      ~decls:
        [ B.array "img" dims2; B.array "tmp" dims2; B.array "out" dims2;
          B.scalar "amount" ]
      ~stencils:[ stencil ]
      ~main:[ A.Run (A.Apply ("blur_sharpen", [ "out"; "tmp"; "img"; "amount" ])) ]
      ~copyout:[ "out" ] ()
  in
  { name = "blur-sharpen"; prog; iterative = false; pingpong = None }

(* gradient magnitude with a foldable pointwise weight product: gx and wx
   are only ever read multiplied together at identical offsets. *)
let gradmag =
  let body =
    [ assign2 "O"
        B.(
          (a2 "GX" (0, 1) * a2 "WX" (0, 1))
          + (a2 "GX" (0, -1) * a2 "WX" (0, -1))
          + (a2 "GX" (1, 0) * a2 "WX" (1, 0))
          + (a2 "GX" (-1, 0) * a2 "WX" (-1, 0))) ]
  in
  let stencil =
    B.stencil "gradmag"
      ~pragma:{ A.empty_pragma with stream_dim = Some "j"; block = Some [ 64 ] }
      [ "O"; "GX"; "WX" ] body
  in
  let prog =
    B.program_checked ~params:(params 2048) ~iters:[ "j"; "i" ]
      ~decls:[ B.array "gx" dims2; B.array "wx" dims2; B.array "mag" dims2 ]
      ~stencils:[ stencil ]
      ~main:[ A.Run (A.Apply ("gradmag", [ "mag"; "gx"; "wx" ])) ]
      ~copyout:[ "mag" ] ()
  in
  { name = "gradmag"; prog; iterative = false; pingpong = None }

let all = [ heat2d; blur_sharpen; gradmag ]

let find name =
  match List.find_opt (fun b -> b.name = name) all with
  | Some b -> b
  | None -> invalid_arg ("Extras.find: unknown benchmark " ^ name)

let at_size n (b : t) = { b with prog = { b.prog with A.params = params n } }

let kernels (b : t) = I.kernels (I.schedule b.prog)
