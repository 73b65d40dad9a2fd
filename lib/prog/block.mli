(** Basic blocks, pre-layout.

    A block has a globally unique label and a straight-line body.  Per
    the paper's definition, a block contains at most one control
    instruction (branch, jump, call or return), which is always last.
    A block whose body has no terminator falls through to the next
    block of its function in layout order. *)

type t = { label : string; body : Vp_isa.Instr.t list }

val v : string -> Vp_isa.Instr.t list -> t
(** [v label body] checks the single-trailing-terminator invariant and
    raises [Invalid_argument] when it is violated. *)

val label : t -> string
val body : t -> Vp_isa.Instr.t list
val size : t -> int
