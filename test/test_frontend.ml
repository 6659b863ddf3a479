(* Mutation test of the front end.  Seeded mutants of real programs (the
   example, the suite, generated ones) go through [Frontend.program],
   which must never raise; every mutant it accepts must then instantiate
   and survive what [artemisc lint], [analyze], [compile] and [optimize]
   do with it: [Lint.lint_program], the [Static] passes analyze prints,
   [Artemis.first_kernel], and per kernel [Lower.lower_with_pragma] ->
   [Validate.validate] -> [Analytic.measure] and [Cuda_emit.emit]. *)

module I = Artemis.Instantiate
module St = Artemis.Static

let case name f = Alcotest.test_case name `Quick f

let seed = 33
let mutants_per_kind = 8

(* The programs mutated: the Listing-1 example (in the build tree under
   [dune runtest], else from the working directory), the 13 suite
   programs and 25 generated programs from each of two seeds, as [.stc]
   text. *)
let sources () =
  let example =
    List.find Sys.file_exists
      [ Filename.concat
          (Filename.dirname (Filename.dirname Sys.executable_name))
          "examples/jacobi.stc";
        "examples/jacobi.stc" ]
  in
  let render = Artemis.Pretty.program_to_string in
  (("jacobi.stc", In_channel.with_open_bin example In_channel.input_all)
   :: List.map (fun (b : Artemis.Suite.t) -> (b.name, render b.prog)) Artemis.Suite.all)
  @ List.concat_map
      (fun gseed ->
        List.init 25 (fun index ->
            ( Printf.sprintf "gen-%d-%d" gseed index,
              render (Artemis_verify.Gen.generate ~seed:gseed ~index).prog )))
      [ 42; 7 ]

(* Byte spans [(start, length)] of the text's rough tokens: runs of
   identifier and number characters, or single other non-blank bytes. *)
let spans text =
  let n = String.length text in
  let word = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' -> true
    | _ -> false
  in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      match text.[i] with
      | ' ' | '\n' | '\t' -> go (i + 1) acc
      | c when word c ->
        let j = ref i in
        while !j < n && word text.[!j] do incr j done;
        go !j ((i, !j - i) :: acc)
      | _ -> go (i + 1) ((i, 1) :: acc)
  in
  go 0 []

let splice text (start, len) by =
  String.sub text 0 start ^ by
  ^ String.sub text (start + len) (String.length text - start - len)

let pick rng l = List.nth l (Random.State.int rng (List.length l))

let literals =
  [ "0"; "-1"; string_of_int max_int; "4611686018427387904"; "9007199254740993"; "1e" ]

(* The mutation kinds, each a function of a generator and the text. *)
let kinds =
  [ ( "byte flip",
      fun rng text ->
        let i = Random.State.int rng (String.length text) in
        let b = Bytes.of_string text in
        Bytes.set b i (Char.chr (Char.code text.[i] lxor (1 lsl Random.State.int rng 7)));
        Bytes.to_string b );
    ("token deletion", fun rng text -> splice text (pick rng (spans text)) "");
    ( "token duplication",
      fun rng text ->
        let ((start, len) as s) = pick rng (spans text) in
        let tok = String.sub text start len in
        splice text s (tok ^ " " ^ tok) );
    ( "line deletion",
      fun rng text ->
        let lines = String.split_on_char '\n' text in
        let drop = Random.State.int rng (List.length lines) in
        String.concat "\n" (List.filteri (fun i _ -> i <> drop) lines) );
    ( "truncation",
      fun rng text -> String.sub text 0 (Random.State.int rng (String.length text)) );
    ( "numeric literal",
      fun rng text ->
        let numeric =
          List.filter
            (fun (start, _) -> match text.[start] with '0' .. '9' -> true | _ -> false)
            (spans text)
        in
        splice text (pick rng numeric) (pick rng literals) ) ]

(* What [artemisc analyze] prints per kernel statement: the domain
   footprint, its volume, the self-dependence verdict and, for uniform
   distances, the hyperplane. *)
let analyze_kernel (k : I.kernel) =
  List.iter2
    (fun st (_, _, fp) ->
      ignore (St.box_volume fp);
      match St.self_dependences ~iters:k.iters st with
      | St.Uniform ds -> ignore (St.hyperplane ~rank:(Array.length k.domain) ds, St.band_safe ds)
      | St.No_dep | St.Unknown -> ())
    k.body (St.domain_footprints k)

let pipeline prog =
  let kernels = I.kernels (I.schedule prog) in
  ignore (Artemis.first_kernel prog);
  ignore (Artemis.Lint.lint_program prog);
  ignore (St.symbolic_footprints prog);
  List.iter
    (fun k ->
      analyze_kernel k;
      let plan = Artemis.Lower.lower_with_pragma Util.dev k Artemis.Options.default in
      match Artemis.Validate.validate plan with
      | Ok v ->
        ignore (Artemis.Analytic.measure v);
        ignore (Artemis.Cuda.emit (v :> Artemis.Plan.t))
      | Error vs -> ignore (List.map (Artemis.Lint.launch_finding plan) vs))
    kernels

let mutation_test () =
  let rng = Random.State.make [| seed |] in
  let sources = sources () in
  let accepted = ref 0 and total = ref 0 in
  let raised = ref [] in
  let rejections =
    List.map
      (fun (kind, mutate) ->
        let rejected = ref 0 in
        List.iter
          (fun (name, text) ->
            for _ = 1 to mutants_per_kind do
              let mutant = mutate rng text in
              incr total;
              let fail stage e =
                raised := Printf.sprintf "%s mutant of %s raised %s in %s:\n%s" kind name
                    (Printexc.to_string e) stage mutant :: !raised
              in
              match Artemis.Frontend.program mutant with
              | exception e -> fail "Frontend.program" e
              | Error _ -> incr rejected
              | Ok prog -> (
                incr accepted;
                match pipeline prog with () -> () | exception e -> fail "the pipeline" e)
            done)
          sources;
        (kind, !rejected))
      kinds
  in
  (match List.rev !raised with
   | [] -> ()
   | first :: _ as all ->
     Alcotest.failf "%d of %d mutants raised; the first:\n%s" (List.length all) !total first);
  Printf.printf "frontend: %d of %d mutants accepted; rejected per kind: %s\n" !accepted !total
    (String.concat ", " (List.map (fun (k, n) -> Printf.sprintf "%s %d" k n) rejections));
  Alcotest.(check bool) "at least 10% of mutants pass the check" true (10 * !accepted >= !total);
  List.iter
    (fun (kind, n) -> Alcotest.(check bool) (kind ^ " yields a rejection") true (n > 0))
    rejections

let tests = ("frontend", [ case "mutants never raise past the check" mutation_test ])
