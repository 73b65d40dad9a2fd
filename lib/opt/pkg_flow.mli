(** Shared package-graph helpers for the optimizer passes: successor
    labels and register effects of package terminators, and register
    sets as bitmasks. *)

val succ_labels : Vp_package.Pkg.term -> string list
(** Package-internal successor labels of a terminator. *)

val term_uses : Vp_package.Pkg.term -> Vp_isa.Reg.t list
(** Registers a terminator reads, including the interprocedural
    summaries of calls and returns and the halt's result register. *)

val term_defs : Vp_package.Pkg.term -> Vp_isa.Reg.t list

val index : Vp_package.Pkg.block array -> (string, int) Hashtbl.t
(** Block label -> position in the array. *)

val mask : Vp_isa.Reg.t list -> int
(** A register set as a bitmask: bit [r] is set when register [r] is in
    the list ({!Vp_isa.Reg.count} registers fit one word). *)

val pure : Vp_isa.Instr.t -> bool
(** Pure register computations (ALU, load-immediate, load-address): no
    memory or control side effect, so they may move or be deleted. *)
