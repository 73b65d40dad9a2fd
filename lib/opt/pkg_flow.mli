(** Shared package-graph helpers for the optimizer passes: successor
    labels and register effects of package terminators.  Register sets
    are [Vp_isa.Reg.bit] masks, as everywhere. *)

val succ_labels : Vp_package.Pkg.term -> string list
(** Package-internal successor labels of a terminator. *)

val term_uses : Vp_package.Pkg.term -> int
(** Registers a terminator reads, including the interprocedural
    summaries of calls and returns and the halt's result register. *)

val term_defs : Vp_package.Pkg.term -> int

val index : Vp_package.Pkg.block array -> (string, int) Hashtbl.t
(** Block label -> position in the array. *)

val pure : Vp_isa.Instr.t -> bool
(** Pure register computations (ALU, load-immediate, load-address): no
    memory or control side effect, so they may move or be deleted. *)
