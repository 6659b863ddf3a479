(** Synthetic stencil-body generator.

    The seven spatial Table-I benchmarks come from DoE mini-apps whose
    sources the paper does not reproduce; only their characteristics are
    published.  This module builds bodies matching those characteristics
    exactly: star/box access patterns set the order and staging pressure,
    1-D center reads reproduce SW4's mixed-rank shape, temporaries
    replicate the Figure-3 dependence structure, and padding chains land
    the body on the published FLOP count to the digit. *)

(** Weighted star over all axes at distances 1..order: 6*order reads
    plus the center. *)
val star_sum : string -> order:int -> w0:float -> Artemis_dsl.Ast.expr

(** Pad with accumulation statements (cycling the outputs, max 32 FLOPs
    per statement) until the body costs exactly [target].
    @raise Invalid_argument when the body already exceeds the target *)
val pad_to_outs :
  target:int -> outs:string list -> arr:string ->
  Artemis_dsl.Ast.stmt list -> Artemis_dsl.Ast.stmt list

(** [pad_to_outs] with a single output. *)
val pad_to :
  target:int -> out:string -> arr:string ->
  Artemis_dsl.Ast.stmt list -> Artemis_dsl.Ast.stmt list

